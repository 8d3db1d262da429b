(* LIB — LIBOR Monte Carlo (GPGPU-sim distribution), 256x1 threadblocks.

   Each thread evolves a small vector of forward rates over many
   timesteps. The per-step market data loads use uniform addresses and the
   per-step discounting (fdiv) is uniform too, so most of the loop is
   TB-uniform redundancy — the reason the paper reports a 75% instruction
   reduction on LIB (and a large slowdown when synchronization is forced,
   since the baseline has no __syncthreads at all). *)

open Darsie_isa
module B = Builder

let threads = 256

let nsteps = 40

let nrates = 2

let delta = 0.25

let build () =
  let b = B.create ~name:"libor" ~nparams:3 () in
  let open B.O in
  (* params: 0=z input (per thread) 1=out 2=lambda table (nrates) *)
  let gid = Util.global_id_x b in
  let z_addr = B.reg b in
  B.mad b z_addr (r gid) (i 4) (p 0);
  let z = B.reg b in
  B.ld b Instr.Global z (r z_addr) ();
  B.fmul b z (r z) (f 0.01);
  let rates = Array.init nrates (fun _ -> B.reg b) in
  Array.iteri
    (fun j rj ->
      let la = B.reg b in
      B.mov b la (p 2);
      let lv = B.reg b in
      B.ld b Instr.Global lv (r la) ~off:(4 * j) ();
      B.fadd b rj (r lv) (r z))
    rates;
  (* Uniform path state: the discount-factor accumulation every thread
     computes identically — the bulk of the real LIBOR loop. *)
  let disc = B.reg b in
  B.mov b disc (f 1.0);
  let acc_u = B.reg b in
  B.mov b acc_u (f 0.0);
  Util.counted_loop b ~bound:(i nsteps) (fun t ->
      (* uniform market-data load: lambda[t & 3] *)
      let idx = B.reg b in
      B.bin b Instr.And idx (r t) (i (nrates - 1));
      let la = B.reg b in
      B.mad b la (r idx) (i 4) (p 2);
      let lam = B.reg b in
      B.ld b Instr.Global lam (r la) ();
      (* con2 = lam*delta / (1 + lam*delta), uniform SFU division *)
      let con = B.reg b in
      B.fmul b con (r lam) (f delta);
      let den = B.reg b in
      B.fadd b den (r con) (f 1.0);
      let con2 = B.reg b in
      B.bin b Instr.Fdiv con2 (r con) (r den);
      (* uniform discounting chain (TB-invariant) *)
      B.fmul b disc (r disc) (r con2);
      B.fadd b acc_u (r acc_u) (r disc);
      let vol = B.reg b in
      B.fmul b vol (r lam) (f 0.05);
      B.fma b vol (r vol) (r con2) (r con);
      (* the thin per-thread component: rate evolution *)
      B.fma b rates.(0) (r rates.(0)) (r con2) (r z);
      for j = 1 to nrates - 1 do
        B.fma b rates.(j) (r rates.(j)) (r vol) (r rates.(j - 1))
      done);
  let payoff = B.reg b in
  B.fadd b payoff (r rates.(0)) (r rates.(1));
  B.fmul b payoff (r payoff) (f 0.25);
  B.fma b payoff (r acc_u) (f 0.01) (r payoff);
  let o_addr = B.reg b in
  B.mad b o_addr (r gid) (i 4) (p 1);
  B.st b Instr.Global (r o_addr) (r payoff);
  B.exit_ b;
  B.finish b

let reference zs lambdas =
  let r32 = Util.r32 in
  Array.map
    (fun z0 ->
      let z = r32 (z0 *. 0.01) in
      let rates = Array.init nrates (fun j -> r32 (lambdas.(j) +. z)) in
      let disc = ref 1.0 and acc_u = ref 0.0 in
      for t = 0 to nsteps - 1 do
        let lam = lambdas.(t land (nrates - 1)) in
        let con = r32 (lam *. delta) in
        let den = r32 (con +. 1.0) in
        let con2 = r32 (con /. den) in
        disc := r32 (!disc *. con2);
        acc_u := r32 (!acc_u +. !disc);
        let vol = r32 (lam *. 0.05) in
        let vol = r32 (r32 (vol *. con2) +. con) in
        rates.(0) <- r32 (r32 (rates.(0) *. con2) +. z);
        for j = 1 to nrates - 1 do
          rates.(j) <- r32 (r32 (rates.(j) *. vol) +. rates.(j - 1))
        done
      done;
      let p = r32 (rates.(0) +. rates.(1)) in
      let p = r32 (p *. 0.25) in
      r32 (r32 (!acc_u *. 0.01) +. p))
    zs

let prepare ~scale =
  let npaths = threads * 8 * scale in
  let kernel = build () in
  let mem = Darsie_emu.Memory.create () in
  let rng = Util.Rng.create 131 in
  let zs = Util.Rng.f32_array rng npaths 1.0 in
  let lambdas = Array.init nrates (fun _ -> Util.Rng.float rng 0.1) in
  let z_base = Darsie_emu.Memory.alloc mem (4 * npaths) in
  let o_base = Darsie_emu.Memory.alloc mem (4 * npaths) in
  let l_base = Darsie_emu.Memory.alloc mem (4 * nrates) in
  Darsie_emu.Memory.write_f32s mem z_base zs;
  Darsie_emu.Memory.write_f32s mem l_base lambdas;
  let launch =
    Kernel.launch kernel
      ~grid:(Kernel.dim3 (npaths / threads))
      ~block:(Kernel.dim3 threads)
      ~params:[| z_base; o_base; l_base |]
  in
  let verify mem' =
    Workload.check_f32 ~tol:1e-3 ~name:"LIB"
      ~expected:(reference zs lambdas)
      (Darsie_emu.Memory.read_f32s mem' o_base npaths)
  in
  { Workload.mem; launch; verify }

let workload =
  {
    Workload.abbr = "LIB";
    full_name = "LIBOR Monte Carlo";
    suite = "GPGPU-sim dist";
    block_dim = (256, 1);
    dimensionality = Workload.D1;
    prepare;
  }
