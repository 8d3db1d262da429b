(* FW — fastWalshTransform (CUDA SDK), 256x1 threadblocks.

   A 512-point Walsh-Hadamard transform per threadblock in shared memory:
   9 butterfly stages with a barrier between stages. The butterfly index
   arithmetic is tid.x-based shift/mask work — affine in 2D terms but, in
   these 1D blocks, non-redundant (DAC's idealized affine stream removes
   it; DARSIE correctly does not). *)

open Darsie_isa
module B = Builder

let threads = 256

let n = 2 * threads

let log_n = 9

let build () =
  let b =
    B.create ~name:"fastWalshTransform" ~nparams:2 ~shared_bytes:(n * 4) ()
  in
  let open B.O in
  (* params: 0=data in/out (n per TB) *)
  let base = B.reg b in
  B.mul b base ctaid_x (i (n * 4));
  B.add b base (r base) (p 0);
  let t4 = B.reg b in
  B.shl b t4 tid_x (i 2);
  let g0 = B.reg b in
  B.add b g0 (r base) (r t4);
  let v0 = B.reg b in
  B.ld b Instr.Global v0 (r g0) ();
  B.st b Instr.Shared (r t4) (r v0);
  let v1 = B.reg b in
  B.ld b Instr.Global v1 (r g0) ~off:(threads * 4) ();
  B.st b Instr.Shared (r t4) ~off:(threads * 4) (r v1);
  B.bar b;
  Util.counted_loop b ~bound:(i log_n) (fun s ->
      (* stride = 2^(log_n - 1 - s); i0 = (q << (log+1)) + rem with
         q = tid >> log, rem = tid & (stride - 1) *)
      let logs = B.reg b in
      B.mov b logs (i (log_n - 1));
      B.sub b logs (r logs) (r s);
      let stride = B.reg b in
      B.mov b stride (i 1);
      B.shl b stride (r stride) (r logs);
      let q = B.reg b in
      B.bin b Instr.Shr_u q tid_x (r logs);
      let mask = B.reg b in
      B.sub b mask (r stride) (i 1);
      let rem = B.reg b in
      B.bin b Instr.And rem tid_x (r mask);
      let logs1 = B.reg b in
      B.add b logs1 (r logs) (i 1);
      let i0 = B.reg b in
      B.shl b i0 (r q) (r logs1);
      B.add b i0 (r i0) (r rem);
      let a0 = B.reg b in
      B.shl b a0 (r i0) (i 2);
      let a1 = B.reg b in
      B.mad b a1 (r stride) (i 4) (r a0);
      let x = B.reg b in
      B.ld b Instr.Shared x (r a0) ();
      let y = B.reg b in
      B.ld b Instr.Shared y (r a1) ();
      let sum = B.reg b in
      B.fadd b sum (r x) (r y);
      let diff = B.reg b in
      B.fsub b diff (r x) (r y);
      B.st b Instr.Shared (r a0) (r sum);
      B.st b Instr.Shared (r a1) (r diff);
      B.bar b);
  let o0 = B.reg b in
  B.ld b Instr.Shared o0 (r t4) ();
  B.st b Instr.Global (r g0) (r o0);
  let o1 = B.reg b in
  B.ld b Instr.Shared o1 (r t4) ~off:(threads * 4) ();
  B.st b Instr.Global (r g0) ~off:(threads * 4) (r o1);
  B.exit_ b;
  B.finish b

let reference data =
  let out = Array.copy data in
  let blocks = Array.length data / n in
  for blk = 0 to blocks - 1 do
    let off = blk * n in
    let stride = ref (n / 2) in
    while !stride >= 1 do
      for t = 0 to threads - 1 do
        let q = t / !stride and rem = t mod !stride in
        let i0 = (q * 2 * !stride) + rem in
        let x = out.(off + i0) and y = out.(off + i0 + !stride) in
        out.(off + i0) <- Util.r32 (x +. y);
        out.(off + i0 + !stride) <- Util.r32 (x -. y)
      done;
      stride := !stride / 2
    done
  done;
  out

let prepare ~scale =
  let blocks = 8 * scale in
  let total = blocks * n in
  let kernel = build () in
  let mem = Darsie_emu.Memory.create () in
  let rng = Util.Rng.create 113 in
  let data = Util.Rng.f32_array rng total 2.0 in
  let d_base = Darsie_emu.Memory.alloc mem (4 * total) in
  Darsie_emu.Memory.write_f32s mem d_base data;
  let launch =
    Kernel.launch kernel ~grid:(Kernel.dim3 blocks)
      ~block:(Kernel.dim3 threads) ~params:[| d_base; 0 |]
  in
  let verify mem' =
    Workload.check_f32 ~tol:1e-3 ~name:"FW"
      ~expected:(reference data)
      (Darsie_emu.Memory.read_f32s mem' d_base total)
  in
  { Workload.mem; launch; verify }

let workload =
  {
    Workload.abbr = "FW";
    full_name = "fastWalshTransform";
    suite = "CUDA SDK";
    block_dim = (256, 1);
    dimensionality = Workload.D1;
    prepare;
  }
