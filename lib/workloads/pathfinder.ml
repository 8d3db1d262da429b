(* PT — pathfinder (Rodinia), 1024x1 threadblocks.

   Dynamic programming over a cost grid: each row, every column takes the
   cheapest of its three upper neighbours (clamped at tile edges with
   min/max, no divergence) plus its own cost. Rows ping-pong between two
   shared-memory buffers with a barrier per row. Each threadblock owns an
   independent 1024-column tile. *)

open Darsie_isa
module B = Builder

let cols = 1024

let build () =
  let b =
    B.create ~name:"pathfinder" ~nparams:3 ~shared_bytes:(2 * cols * 4) ()
  in
  let open B.O in
  (* params: 0=cost (rows x total_cols) 1=out 2=rows; total cols =
     nctaid.x * 1024 *)
  let gid = Util.global_id_x b in
  let total4 = B.reg b in
  B.mul b total4 nctaid_x (i (cols * 4));
  let g_addr = B.reg b in
  B.mad b g_addr (r gid) (i 4) (p 0);
  let c0 = B.reg b in
  B.ld b Instr.Global c0 (r g_addr) ();
  let sh = B.reg b in
  B.shl b sh tid_x (i 2);
  B.st b Instr.Shared (r sh) (r c0);
  (* clamped left/right shared offsets *)
  let left = B.reg b in
  B.sub b left tid_x (i 1);
  B.bin b Instr.Max_s left (r left) (i 0);
  B.shl b left (r left) (i 2);
  let right = B.reg b in
  B.add b right tid_x (i 1);
  B.bin b Instr.Min_s right (r right) (i (cols - 1));
  B.shl b right (r right) (i 2);
  B.bar b;
  let rows_m1 = B.reg b in
  B.sub b rows_m1 (p 2) (i 1);
  Util.counted_loop b ~bound:(r rows_m1) (fun it ->
      (* row rr = it + 1; ping-pong offsets from parity of rr *)
      let rr = B.reg b in
      B.add b rr (r it) (i 1);
      let par = B.reg b in
      B.bin b Instr.And par (r rr) (i 1);
      let p_odd = B.pred b in
      B.setp b Instr.Scmp Instr.Eq p_odd (r par) (i 1);
      let in_off = B.reg b in
      B.selp b in_off (i 0) (i (cols * 4)) p_odd;
      let out_off = B.reg b in
      B.selp b out_off (i (cols * 4)) (i 0) p_odd;
      let a_l = B.reg b in
      B.add b a_l (r left) (r in_off);
      let vl = B.reg b in
      B.ld b Instr.Shared vl (r a_l) ();
      let a_c = B.reg b in
      B.add b a_c (r sh) (r in_off);
      let vc = B.reg b in
      B.ld b Instr.Shared vc (r a_c) ();
      let a_r = B.reg b in
      B.add b a_r (r right) (r in_off);
      let vr = B.reg b in
      B.ld b Instr.Shared vr (r a_r) ();
      let best = B.reg b in
      B.bin b Instr.Min_s best (r vl) (r vc);
      B.bin b Instr.Min_s best (r best) (r vr);
      (* cost[rr][gid] *)
      let ca = B.reg b in
      B.mul b ca (r rr) (r total4);
      B.add b ca (r ca) (r g_addr);
      let cost = B.reg b in
      B.ld b Instr.Global cost (r ca) ();
      let nv = B.reg b in
      B.add b nv (r best) (r cost);
      let a_o = B.reg b in
      B.add b a_o (r sh) (r out_off);
      B.st b Instr.Shared (r a_o) (r nv);
      B.bar b);
  (* final row parity *)
  let par = B.reg b in
  B.bin b Instr.And par (r rows_m1) (i 1);
  let p_odd = B.pred b in
  B.setp b Instr.Scmp Instr.Eq p_odd (r par) (i 1);
  let off = B.reg b in
  B.selp b off (i (cols * 4)) (i 0) p_odd;
  let a_f = B.reg b in
  B.add b a_f (r sh) (r off);
  let final = B.reg b in
  B.ld b Instr.Shared final (r a_f) ();
  let o_addr = B.reg b in
  B.mad b o_addr (r gid) (i 4) (p 1);
  B.st b Instr.Global (r o_addr) (r final);
  B.exit_ b;
  B.finish b

let reference ~rows ~total cost =
  let prev = Array.init total (fun c -> cost.(c)) in
  let tiles = total / cols in
  for rr = 1 to rows - 1 do
    let cur = Array.make total 0 in
    for tile = 0 to tiles - 1 do
      for c = 0 to cols - 1 do
        let g = (tile * cols) + c in
        let l = (tile * cols) + max 0 (c - 1) in
        let r_ = (tile * cols) + min (cols - 1) (c + 1) in
        cur.(g) <-
          min (min prev.(l) prev.(g)) prev.(r_) + cost.((rr * total) + g)
      done
    done;
    Array.blit cur 0 prev 0 total
  done;
  prev

let prepare ~scale =
  let tiles = 2 * scale and rows = 12 in
  let total = tiles * cols in
  let kernel = build () in
  let mem = Darsie_emu.Memory.create () in
  let rng = Util.Rng.create 101 in
  let cost = Util.Rng.i32_array rng (rows * total) 10 in
  let c_base = Darsie_emu.Memory.alloc mem (4 * rows * total) in
  let o_base = Darsie_emu.Memory.alloc mem (4 * total) in
  Darsie_emu.Memory.write_i32s mem c_base cost;
  let launch =
    Kernel.launch kernel ~grid:(Kernel.dim3 tiles) ~block:(Kernel.dim3 cols)
      ~params:[| c_base; o_base; rows |]
  in
  let verify mem' =
    Workload.check_i32 ~name:"PT"
      ~expected:(reference ~rows ~total cost)
      (Darsie_emu.Memory.read_i32s mem' o_base total)
  in
  { Workload.mem; launch; verify }

let workload =
  {
    Workload.abbr = "PT";
    full_name = "pathfinder";
    suite = "Rodinia";
    block_dim = (1024, 1);
    dimensionality = Workload.D1;
    prepare;
  }
