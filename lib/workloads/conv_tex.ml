(* CONVTEX — convolutionTexture (CUDA SDK), 16x16 threadblocks.

   5x5 image convolution with boundary clamping. Filter coefficients are
   loaded from uniform addresses (definitely redundant); the column offset
   arithmetic is conditionally redundant affine; the image loads
   themselves vary per warp. *)

open Darsie_isa
module B = Builder

let bdim = 16

let radius = 2

let taps = (2 * radius) + 1

let build () =
  let b = B.create ~name:"convolutionTexture" ~nparams:5 () in
  let open B.O in
  (* params: 0=src 1=dst 2=coef 3=width 4=height *)
  let gx = Util.global_id_x b in
  let gy = Util.global_id_y b in
  let wm1 = B.reg b in
  B.sub b wm1 (p 3) (i 1);
  let hm1 = B.reg b in
  B.sub b hm1 (p 4) (i 1);
  let w4 = B.reg b in
  B.shl b w4 (p 3) (i 2);
  let acc = B.reg b in
  B.mov b acc (f 0.0);
  (* Fully unrolled taps (the SDK kernel is #pragma unroll):
     conditionally redundant column clamping, vector row addressing and
     image load, uniform coefficient load. Scratch registers reused across
     taps like a register allocator would. *)
  let sx = B.reg b and sy = B.reg b and a = B.reg b in
  let sx4 = B.reg b and v = B.reg b and ca = B.reg b and cv = B.reg b in
  for t = 0 to (taps * taps) - 1 do
    let dy = (t / taps) - radius and dx = (t mod taps) - radius in
    B.add b sx (r gx) (i dx);
    B.bin b Instr.Max_s sx (r sx) (i 0);
    B.bin b Instr.Min_s sx (r sx) (r wm1);
    B.add b sy (r gy) (i dy);
    B.bin b Instr.Max_s sy (r sy) (i 0);
    B.bin b Instr.Min_s sy (r sy) (r hm1);
    B.mul b a (r sy) (r w4);
    B.add b a (r a) (p 0);
    B.shl b sx4 (r sx) (i 2);
    B.add b a (r a) (r sx4);
    B.ld b Instr.Global v (r a) ();
    B.mov b ca (p 2);
    B.ld b Instr.Global cv (r ca) ~off:(t * 4) ();
    B.fma b acc (r v) (r cv) (r acc)
  done;
  let addr = B.reg b in
  B.mul b addr (r gy) (r w4);
  B.add b addr (r addr) (p 1);
  let gx4 = B.reg b in
  B.shl b gx4 (r gx) (i 2);
  B.add b addr (r addr) (r gx4);
  B.st b Instr.Global (r addr) (r acc);
  B.exit_ b;
  B.finish b

let reference ~w ~h src coef =
  let r32 = Util.r32 in
  Array.init (w * h) (fun idx ->
      let x = idx mod w and y = idx / w in
      let acc = ref 0.0 in
      for t = 0 to (taps * taps) - 1 do
        let dy = (t / taps) - radius and dx = (t mod taps) - radius in
        let sx = max 0 (min (w - 1) (x + dx)) in
        let sy = max 0 (min (h - 1) (y + dy)) in
        acc := r32 (r32 (src.((sy * w) + sx) *. coef.(t)) +. !acc)
      done;
      !acc)

let prepare ~scale =
  let w = 64 and h = 32 * scale in
  let kernel = build () in
  let mem = Darsie_emu.Memory.create () in
  let rng = Util.Rng.create 61 in
  let src = Util.Rng.f32_array rng (w * h) 1.0 in
  let coef =
    Array.init (taps * taps) (fun _ -> Util.Rng.float rng (1.0 /. 12.0))
  in
  let s_base = Darsie_emu.Memory.alloc mem (4 * w * h) in
  let d_base = Darsie_emu.Memory.alloc mem (4 * w * h) in
  let c_base = Darsie_emu.Memory.alloc mem (4 * taps * taps) in
  Darsie_emu.Memory.write_f32s mem s_base src;
  Darsie_emu.Memory.write_f32s mem c_base coef;
  let launch =
    Kernel.launch kernel
      ~grid:(Kernel.dim3 (w / bdim) ~y:(h / bdim))
      ~block:(Kernel.dim3 bdim ~y:bdim)
      ~params:[| s_base; d_base; c_base; w; h |]
  in
  let verify mem' =
    Workload.check_f32 ~tol:1e-2 ~name:"CONVTEX"
      ~expected:(reference ~w ~h src coef)
      (Darsie_emu.Memory.read_f32s mem' d_base (w * h))
  in
  { Workload.mem; launch; verify }

let workload =
  {
    Workload.abbr = "CONVTEX";
    full_name = "convolutionTexture";
    suite = "CUDA SDK";
    block_dim = (16, 16);
    dimensionality = Workload.D2;
    prepare;
  }
