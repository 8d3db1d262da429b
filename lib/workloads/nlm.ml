(* IMNLM — ImageDenoisingNLM (CUDA SDK), 16x16 threadblocks.

   Non-local-means style denoising: each pixel accumulates
   exponentially-weighted contributions from a 5x5 search window. The
   window-offset arithmetic is uniform (SFU div/rem per tap), column
   indices are conditionally redundant affine, and the exp2/rcp work is
   SFU-heavy. *)

open Darsie_isa
module B = Builder

let bdim = 16

let radius = 2

let taps = (2 * radius) + 1

let inv_h2 = 8.0

let build () =
  let b = B.create ~name:"imageDenoisingNLM" ~nparams:4 () in
  let open B.O in
  (* params: 0=src 1=dst 2=width 3=height *)
  let gx = Util.global_id_x b in
  let gy = Util.global_id_y b in
  let wm1 = B.reg b in
  B.sub b wm1 (p 2) (i 1);
  let hm1 = B.reg b in
  B.sub b hm1 (p 3) (i 1);
  let w4 = B.reg b in
  B.shl b w4 (p 2) (i 2);
  let c_addr = B.reg b in
  B.mul b c_addr (r gy) (r w4);
  B.add b c_addr (r c_addr) (p 0);
  let gx4 = B.reg b in
  B.shl b gx4 (r gx) (i 2);
  B.add b c_addr (r c_addr) (r gx4);
  let center = B.reg b in
  B.ld b Instr.Global center (r c_addr) ();
  let sum = B.reg b in
  B.mov b sum (f 0.0);
  let norm = B.reg b in
  B.mov b norm (f 0.0);
  (* fully unrolled search window, scratch registers reused across taps *)
  let sx = B.reg b and sy = B.reg b and a = B.reg b and sx4 = B.reg b in
  let v = B.reg b and d = B.reg b and d2 = B.reg b and wgt = B.reg b in
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
    B.fsub b d (r v) (r center);
    B.fmul b d2 (r d) (r d);
    B.fmul b d2 (r d2) (f (-.inv_h2));
    B.un b Instr.Fexp2 wgt (r d2);
    B.fma b sum (r wgt) (r v) (r sum);
    B.fadd b norm (r norm) (r wgt)
  done;
  let inv_norm = B.reg b in
  B.un b Instr.Frcp inv_norm (r norm);
  let out = B.reg b in
  B.fmul b out (r sum) (r inv_norm);
  let o_addr = B.reg b in
  B.mul b o_addr (r gy) (r w4);
  B.add b o_addr (r o_addr) (p 1);
  B.add b o_addr (r o_addr) (r gx4);
  B.st b Instr.Global (r o_addr) (r out);
  B.exit_ b;
  B.finish b

let reference ~w ~h src =
  let r32 = Util.r32 in
  Array.init (w * h) (fun idx ->
      let x = idx mod w and y = idx / w in
      let center = src.(idx) in
      let sum = ref 0.0 and norm = ref 0.0 in
      for t = 0 to (taps * taps) - 1 do
        let dy = (t / taps) - radius and dx = (t mod taps) - radius in
        let sx = max 0 (min (w - 1) (x + dx)) in
        let sy = max 0 (min (h - 1) (y + dy)) in
        let v = src.((sy * w) + sx) in
        let d = r32 (v -. center) in
        let d2 = r32 (r32 (d *. d) *. -.inv_h2) in
        let wgt = r32 (Float.exp2 d2) in
        sum := r32 (r32 (wgt *. v) +. !sum);
        norm := r32 (!norm +. wgt)
      done;
      r32 (!sum *. r32 (1.0 /. !norm)))

let prepare ~scale =
  let w = 64 and h = 32 * scale in
  let kernel = build () in
  let mem = Darsie_emu.Memory.create () in
  let rng = Util.Rng.create 83 in
  let src = Util.Rng.f32_array rng (w * h) 1.0 in
  let s_base = Darsie_emu.Memory.alloc mem (4 * w * h) in
  let d_base = Darsie_emu.Memory.alloc mem (4 * w * h) in
  Darsie_emu.Memory.write_f32s mem s_base src;
  let launch =
    Kernel.launch kernel
      ~grid:(Kernel.dim3 (w / bdim) ~y:(h / bdim))
      ~block:(Kernel.dim3 bdim ~y:bdim)
      ~params:[| s_base; d_base; w; h |]
  in
  let verify mem' =
    Workload.check_f32 ~tol:2e-2 ~name:"IMNLM"
      ~expected:(reference ~w ~h src)
      (Darsie_emu.Memory.read_f32s mem' d_base (w * h))
  in
  { Workload.mem; launch; verify }

let workload =
  {
    Workload.abbr = "IMNLM";
    full_name = "ImageDenoisingNLM";
    suite = "CUDA SDK";
    block_dim = (16, 16);
    dimensionality = Workload.D2;
    prepare;
  }
