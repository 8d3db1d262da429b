(* FWS — Floyd-Warshall (Pannotia), 16x16 threadblocks.

   One k-step of all-pairs shortest paths:
   dist'[i][j] = min(dist[i][j], dist[i][k] + dist[k][j]).
   The dist[k][j] load uses a conditionally redundant affine address
   (k uniform, j = blockIdx.x*16 + tid.x), so its value is unstructured
   redundant; the kernel is memory-dominated, which is why the paper sees
   only a 13% speedup from a 21% instruction reduction on FWS. *)

open Darsie_isa
module B = Builder

let bdim = 16

let build () =
  let b = B.create ~name:"floydWarshall" ~nparams:4 () in
  let open B.O in
  (* params: 0=dist_in 1=dist_out 2=n 3=k *)
  let j = Util.global_id_x b in
  let i_ = Util.global_id_y b in
  let n4 = B.reg b in
  B.shl b n4 (p 2) (i 2);
  let j4 = B.reg b in
  B.shl b j4 (r j) (i 2);
  (* dist[i][j] *)
  let a_ij = B.reg b in
  B.mul b a_ij (r i_) (r n4);
  B.add b a_ij (r a_ij) (p 0);
  B.add b a_ij (r a_ij) (r j4);
  let d_ij = B.reg b in
  B.ld b Instr.Global d_ij (r a_ij) ();
  (* dist[i][k] *)
  let a_ik = B.reg b in
  B.mul b a_ik (r i_) (r n4);
  B.add b a_ik (r a_ik) (p 0);
  let k4 = B.reg b in
  B.shl b k4 (p 3) (i 2);
  B.add b a_ik (r a_ik) (r k4);
  let d_ik = B.reg b in
  B.ld b Instr.Global d_ik (r a_ik) ();
  (* dist[k][j]: k*n uniform + affine column -> CR address *)
  let a_kj = B.reg b in
  B.mul b a_kj (p 3) (r n4);
  B.add b a_kj (r a_kj) (p 0);
  B.add b a_kj (r a_kj) (r j4);
  let d_kj = B.reg b in
  B.ld b Instr.Global d_kj (r a_kj) ();
  let via = B.reg b in
  B.add b via (r d_ik) (r d_kj);
  let best = B.reg b in
  B.bin b Instr.Min_s best (r d_ij) (r via);
  let a_out = B.reg b in
  B.mul b a_out (r i_) (r n4);
  B.add b a_out (r a_out) (p 1);
  B.add b a_out (r a_out) (r j4);
  B.st b Instr.Global (r a_out) (r best);
  B.exit_ b;
  B.finish b

let reference ~n ~k dist =
  Array.init (n * n) (fun idx ->
      let i = idx / n and j = idx mod n in
      min dist.(idx) (dist.((i * n) + k) + dist.((k * n) + j)))

let prepare ~scale =
  let n = 64 * scale in
  let k = 5 in
  let kernel = build () in
  let mem = Darsie_emu.Memory.create () in
  let rng = Util.Rng.create 41 in
  let dist = Util.Rng.i32_array rng (n * n) 1000 in
  let in_base = Darsie_emu.Memory.alloc mem (4 * n * n) in
  let out_base = Darsie_emu.Memory.alloc mem (4 * n * n) in
  Darsie_emu.Memory.write_i32s mem in_base dist;
  let launch =
    Kernel.launch kernel
      ~grid:(Kernel.dim3 (n / bdim) ~y:(n / bdim))
      ~block:(Kernel.dim3 bdim ~y:bdim)
      ~params:[| in_base; out_base; n; k |]
  in
  let verify mem' =
    Workload.check_i32 ~name:"FWS"
      ~expected:(reference ~n ~k dist)
      (Darsie_emu.Memory.read_i32s mem' out_base (n * n))
  in
  { Workload.mem; launch; verify }

let workload =
  {
    Workload.abbr = "FWS";
    full_name = "Floyd-Warshall";
    suite = "Pannotia";
    block_dim = (16, 16);
    dimensionality = Workload.D2;
    prepare;
  }
