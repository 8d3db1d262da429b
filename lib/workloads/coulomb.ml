(* CP — Coulombic Potential (GPGPU-sim distribution / VMD cionize),
   16x8 threadblocks.

   Each thread accumulates the electrostatic potential of all atoms at one
   lattice point. The per-iteration atom loads use uniform (definitely
   redundant) addresses and the distance math is SFU-heavy — the uniform
   redundancy plus compute density the paper reports for CP. *)

open Darsie_isa
module B = Builder

let bx = 16

let by = 8

let spacing = 0.25

let build () =
  let b = B.create ~name:"coulomb" ~nparams:4 () in
  let open B.O in
  (* params: 0=atoms (x,y,z,q quads) 1=out 2=natoms 3=width *)
  let gx = Util.global_id_x b in
  let gy = Util.global_id_y b in
  let fx = B.reg b in
  B.un b Instr.Cvt_i2f fx (r gx);
  B.fmul b fx (r fx) (f spacing);
  let fy = B.reg b in
  B.un b Instr.Cvt_i2f fy (r gy);
  B.fmul b fy (r fy) (f spacing);
  let acc = B.reg b in
  B.mov b acc (f 0.0);
  Util.counted_loop b ~bound:(p 2) (fun t ->
      (* uniform atom record address *)
      let a = B.reg b in
      B.mad b a (r t) (i 16) (p 0);
      let ax = B.reg b in
      B.ld b Instr.Global ax (r a) ();
      let ay = B.reg b in
      B.ld b Instr.Global ay (r a) ~off:4 ();
      let az = B.reg b in
      B.ld b Instr.Global az (r a) ~off:8 ();
      let aq = B.reg b in
      B.ld b Instr.Global aq (r a) ~off:12 ();
      let dx = B.reg b in
      B.fsub b dx (r fx) (r ax);
      let dy = B.reg b in
      B.fsub b dy (r fy) (r ay);
      let d2 = B.reg b in
      B.fmul b d2 (r dx) (r dx);
      B.fma b d2 (r dy) (r dy) (r d2);
      B.fma b d2 (r az) (r az) (r d2);
      let dist = B.reg b in
      B.un b Instr.Fsqrt dist (r d2);
      let inv = B.reg b in
      B.un b Instr.Frcp inv (r dist);
      B.fma b acc (r aq) (r inv) (r acc));
  let w4 = B.reg b in
  B.shl b w4 (p 3) (i 2);
  let addr = B.reg b in
  B.mul b addr (r gy) (r w4);
  B.add b addr (r addr) (p 1);
  let gx4 = B.reg b in
  B.shl b gx4 (r gx) (i 2);
  B.add b addr (r addr) (r gx4);
  B.st b Instr.Global (r addr) (r acc);
  B.exit_ b;
  B.finish b

let reference ~w ~h ~natoms atoms =
  let r32 = Util.r32 in
  Array.init (w * h) (fun idx ->
      let x = idx mod w and y = idx / w in
      let fx = r32 (r32 (float_of_int x) *. spacing) in
      let fy = r32 (r32 (float_of_int y) *. spacing) in
      let acc = ref 0.0 in
      for t = 0 to natoms - 1 do
        let ax = atoms.((t * 4) + 0)
        and ay = atoms.((t * 4) + 1)
        and az = atoms.((t * 4) + 2)
        and aq = atoms.((t * 4) + 3) in
        let dx = r32 (fx -. ax) and dy = r32 (fy -. ay) in
        let d2 = r32 (dx *. dx) in
        let d2 = r32 (r32 (dy *. dy) +. d2) in
        let d2 = r32 (r32 (az *. az) +. d2) in
        let dist = r32 (sqrt d2) in
        let inv = r32 (1.0 /. dist) in
        acc := r32 (r32 (aq *. inv) +. !acc)
      done;
      !acc)

let prepare ~scale =
  let w = 64 and h = 32 * scale in
  let natoms = 24 in
  let kernel = build () in
  let mem = Darsie_emu.Memory.create () in
  let rng = Util.Rng.create 53 in
  let atoms =
    Array.init (natoms * 4) (fun i ->
        if i mod 4 = 2 then Util.r32 (Util.Rng.float rng 4.0 +. 0.5)
        else Util.Rng.float rng 16.0)
  in
  let a_base = Darsie_emu.Memory.alloc mem (4 * natoms * 4) in
  let o_base = Darsie_emu.Memory.alloc mem (4 * w * h) in
  Darsie_emu.Memory.write_f32s mem a_base atoms;
  let launch =
    Kernel.launch kernel
      ~grid:(Kernel.dim3 (w / bx) ~y:(h / by))
      ~block:(Kernel.dim3 bx ~y:by)
      ~params:[| a_base; o_base; natoms; w |]
  in
  let verify mem' =
    Workload.check_f32 ~tol:1e-2 ~name:"CP"
      ~expected:(reference ~w ~h ~natoms atoms)
      (Darsie_emu.Memory.read_f32s mem' o_base (w * h))
  in
  { Workload.mem; launch; verify }

let workload =
  {
    Workload.abbr = "CP";
    full_name = "Coulombic Potential";
    suite = "GPGPU-sim dist";
    block_dim = (16, 8);
    dimensionality = Workload.D2;
    prepare;
  }
