(* MM — matrixMul (CUDA SDK), 32x32 threadblocks (Table 1).

   Classic shared-memory tiled matrix multiply. With a 32-wide warp and a
   32x32 TB, every warp is one row of the tile: the Bs[k][tx] shared loads
   use conditionally redundant affine addresses and produce the
   unstructured redundancy the paper's Figure 6 highlights, while the
   As[ty][k] loads are true vector operations. *)

open Darsie_isa
module B = Builder

let tile = 32

let build () =
  let b = B.create ~name:"matrixMul" ~nparams:5 ~shared_bytes:(2 * tile * tile * 4) () in
  let open B.O in
  (* params: 0=A 1=B 2=C 3=n(elements) 4=tiles *)
  let row = B.reg b in
  B.mad b row ctaid_y (i tile) tid_y;
  let col = B.reg b in
  B.mad b col ctaid_x (i tile) tid_x;
  let acc = B.reg b in
  B.mov b acc (f 0.0);
  let n4 = B.reg b in
  B.shl b n4 (p 3) (i 2);
  (* &A[row][0] *)
  let a_row = B.reg b in
  B.mul b a_row (r row) (r n4);
  B.add b a_row (r a_row) (p 0);
  (* &B[0][col] *)
  let b_col = B.reg b in
  B.mad b b_col (r col) (i 4) (p 1);
  (* shared-store offset of this thread's tile slot, in bytes *)
  let s_idx = B.reg b in
  B.mad b s_idx tid_y (i tile) tid_x;
  B.shl b s_idx (r s_idx) (i 2);
  (* As[ty][.] base in bytes; Bs region starts at tile*tile*4 *)
  let a_srow = B.reg b in
  B.mul b a_srow tid_y (i (tile * 4));
  let b_scol = B.reg b in
  B.mad b b_scol tid_x (i 4) (i (tile * tile * 4));
  Util.counted_loop b ~bound:(p 4) (fun t ->
      (* global loads of the A and B tiles *)
      let ga = B.reg b in
      B.mad b ga (r t) (i (tile * 4)) (i 0);
      B.add b ga (r ga) (r a_row);
      let off_x = B.reg b in
      B.shl b off_x tid_x (i 2);
      B.add b ga (r ga) (r off_x);
      let va = B.reg b in
      B.ld b Instr.Global va (r ga) ();
      B.st b Instr.Shared (r s_idx) (r va);
      let gb = B.reg b in
      B.mad b gb (r t) (i tile) tid_y;
      B.mul b gb (r gb) (r n4);
      B.add b gb (r gb) (r b_col);
      let vb = B.reg b in
      B.ld b Instr.Global vb (r gb) ();
      B.st b Instr.Shared (r s_idx) ~off:(tile * tile * 4) (r vb);
      B.bar b;
      (* Fully unrolled inner product over the tile, matching the
         register-allocated PTXPlus the paper's Figure 6 analyzes: per
         step, a conditionally redundant Bs-pointer increment, a
         conditionally redundant Bs[k][tx] shared load, a vector As[ty][k]
         shared load (PTXPlus folds this one into the mad's shared-memory
         operand; our ISA keeps it explicit) and the vector fma. *)
      let av = B.reg b and bv = B.reg b in
      let b_ptr = B.reg b in
      B.mov b b_ptr (r b_scol);
      for k = 0 to tile - 1 do
        B.ld b Instr.Shared av (r a_srow) ~off:(k * 4) ();
        B.ld b Instr.Shared bv (r b_ptr) ();
        B.add b b_ptr (r b_ptr) (i (tile * 4));
        B.fma b acc (r av) (r bv) (r acc)
      done;
      B.bar b);
  let c_addr = B.reg b in
  B.mul b c_addr (r row) (r n4);
  B.add b c_addr (r c_addr) (p 2);
  let col4 = B.reg b in
  B.shl b col4 (r col) (i 2);
  B.add b c_addr (r c_addr) (r col4);
  B.st b Instr.Global (r c_addr) (r acc);
  B.exit_ b;
  B.finish b

let reference ~n a bm =
  let c = Array.make (n * n) 0.0 in
  for row = 0 to n - 1 do
    for col = 0 to n - 1 do
      (* accumulate in the kernel's order with f32 rounding *)
      let acc = ref 0.0 in
      for k = 0 to n - 1 do
        acc := Util.r32 ((Util.r32 (a.((row * n) + k) *. bm.((k * n) + col))) +. !acc)
      done;
      c.((row * n) + col) <- !acc
    done
  done;
  c

let prepare ~scale =
  let n = 64 * scale in
  let kernel = build () in
  let mem = Darsie_emu.Memory.create () in
  let rng = Util.Rng.create 11 in
  let a = Util.Rng.f32_array rng (n * n) 1.0 in
  let bm = Util.Rng.f32_array rng (n * n) 1.0 in
  let a_base = Darsie_emu.Memory.alloc mem (4 * n * n) in
  let b_base = Darsie_emu.Memory.alloc mem (4 * n * n) in
  let c_base = Darsie_emu.Memory.alloc mem (4 * n * n) in
  Darsie_emu.Memory.write_f32s mem a_base a;
  Darsie_emu.Memory.write_f32s mem b_base bm;
  let launch =
    Kernel.launch kernel
      ~grid:(Kernel.dim3 (n / tile) ~y:(n / tile))
      ~block:(Kernel.dim3 tile ~y:tile)
      ~params:[| a_base; b_base; c_base; n; n / tile |]
  in
  let verify mem' =
    Workload.check_f32 ~tol:1e-3 ~name:"MM"
      ~expected:(reference ~n a bm)
      (Darsie_emu.Memory.read_f32s mem' c_base (n * n))
  in
  { Workload.mem; launch; verify }

let workload =
  {
    Workload.abbr = "MM";
    full_name = "matrixMul";
    suite = "CUDA SDK";
    block_dim = (32, 32);
    dimensionality = Workload.D2;
    prepare;
  }
