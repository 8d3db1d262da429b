(* BIN — binomialOptions (CUDA SDK), 256x1 threadblocks.

   One option per threadblock: a backward-induction binomial lattice in
   shared memory with a barrier per step. The shrinking `tid < t` frontier
   produces warp-level (and eventually intra-warp) divergence each step;
   the per-step probabilities and loop bookkeeping are uniform. *)

open Darsie_isa
module B = Builder

let threads = 256

let steps = threads - 1

let pu = 0.52

let pd = 0.47

let ds = 0.5

let build () =
  let b =
    B.create ~name:"binomialOptions" ~nparams:3 ~shared_bytes:(threads * 4) ()
  in
  let open B.O in
  (* params: 0=spot array 1=strike array 2=out array (one per option/TB) *)
  let opt4 = B.reg b in
  B.shl b opt4 ctaid_x (i 2);
  let s_addr = B.reg b in
  B.add b s_addr (p 0) (r opt4);
  let s0 = B.reg b in
  B.ld b Instr.Global s0 (r s_addr) ();
  let x_addr = B.reg b in
  B.add b x_addr (p 1) (r opt4);
  let strike = B.reg b in
  B.ld b Instr.Global strike (r x_addr) ();
  (* leaf payoff: max(s0 + tid*ds - strike, 0) *)
  let fi = B.reg b in
  B.un b Instr.Cvt_i2f fi tid_x;
  let v = B.reg b in
  B.fma b v (r fi) (f ds) (r s0);
  B.fsub b v (r v) (r strike);
  B.bin b Instr.Fmax v (r v) (f 0.0);
  let sh = B.reg b in
  B.shl b sh tid_x (i 2);
  B.st b Instr.Shared (r sh) (r v);
  B.bar b;
  (* backward induction: t = steps, steps-1, ..., 1 *)
  Util.counted_loop b ~bound:(i steps) (fun it ->
      let t = B.reg b in
      B.mov b t (i steps);
      B.sub b t (r t) (r it);
      let skip = B.fresh_label b in
      let p_out = B.pred b in
      B.setp b Instr.Scmp Instr.Ge p_out tid_x (r t);
      B.bra b ~guard:(true, p_out) skip;
      let v1 = B.reg b in
      B.ld b Instr.Shared v1 (r sh) ~off:4 ();
      let v0 = B.reg b in
      B.ld b Instr.Shared v0 (r sh) ();
      let nv = B.reg b in
      B.fmul b nv (r v1) (f pu);
      B.fma b nv (r v0) (f pd) (r nv);
      B.st b Instr.Shared (r sh) (r nv);
      B.place b skip;
      B.bar b);
  (* thread 0 stores the option value *)
  let p0 = B.pred b in
  B.setp b Instr.Scmp Instr.Eq p0 tid_x (i 0);
  let result = B.reg b in
  B.ld b Instr.Shared result (Instr.Imm 0) ();
  let o_addr = B.reg b in
  B.add b o_addr (p 2) (r opt4);
  B.emit b ~guard:(true, p0)
    (Instr.St (Instr.Global, Instr.Reg o_addr, 0, Instr.Reg result));
  B.exit_ b;
  B.finish b

let reference spot strike =
  let r32 = Util.r32 in
  Array.map2
    (fun s0 x ->
      let v =
        Array.init threads (fun i ->
            max 0.0 (r32 (r32 (r32 (float_of_int i *. ds) +. s0) -. x)))
      in
      for t = steps downto 1 do
        for i = 0 to t - 1 do
          v.(i) <- r32 (r32 (v.(i + 1) *. pu) +. r32 (v.(i) *. pd))
        done
      done;
      v.(0))
    spot strike

let prepare ~scale =
  let noptions = 4 * scale in
  let kernel = build () in
  let mem = Darsie_emu.Memory.create () in
  let rng = Util.Rng.create 97 in
  let spot = Array.map (fun x -> Util.r32 (x +. 20.0)) (Util.Rng.f32_array rng noptions 20.0) in
  let strike = Array.map (fun x -> Util.r32 (x +. 30.0)) (Util.Rng.f32_array rng noptions 20.0) in
  let s_base = Darsie_emu.Memory.alloc mem (4 * noptions) in
  let x_base = Darsie_emu.Memory.alloc mem (4 * noptions) in
  let o_base = Darsie_emu.Memory.alloc mem (4 * noptions) in
  Darsie_emu.Memory.write_f32s mem s_base spot;
  Darsie_emu.Memory.write_f32s mem x_base strike;
  let launch =
    Kernel.launch kernel ~grid:(Kernel.dim3 noptions)
      ~block:(Kernel.dim3 threads)
      ~params:[| s_base; x_base; o_base |]
  in
  let verify mem' =
    Workload.check_f32 ~tol:1e-2 ~name:"BIN"
      ~expected:(reference spot strike)
      (Darsie_emu.Memory.read_f32s mem' o_base noptions)
  in
  { Workload.mem; launch; verify }

let workload =
  {
    Workload.abbr = "BIN";
    full_name = "binomialOptions";
    suite = "CUDA SDK";
    block_dim = (256, 1);
    dimensionality = Workload.D1;
    prepare;
  }
