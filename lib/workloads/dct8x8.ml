(* DCT8x8 (CUDA SDK), 8x8 threadblocks.

   Two-pass 8-point DCT-II on 8x8 tiles through shared memory. The row
   pass reads the coefficient table at tid.x-based (conditionally
   redundant affine) addresses; the column pass reads the intermediate
   tile at k*8+tid.x addresses — the unstructured redundancy the paper
   attributes to this benchmark. *)

open Darsie_isa
module B = Builder

let bs = 8

let coef_table =
  (* c.(u).(k) = alpha(u) * cos((2k+1) u pi / 16), single precision *)
  Array.init bs (fun u ->
      Array.init bs (fun k ->
          let alpha =
            if u = 0 then sqrt (1.0 /. float_of_int bs)
            else sqrt (2.0 /. float_of_int bs)
          in
          Util.r32
            (alpha
            *. cos
                 (Float.pi
                 *. float_of_int ((2 * k) + 1)
                 *. float_of_int u /. 16.0))))

let build () =
  let b =
    B.create ~name:"dct8x8" ~nparams:4 ~shared_bytes:(2 * bs * bs * 4) ()
  in
  let open B.O in
  (* params: 0=src 1=dst 2=coef 3=width *)
  let gx = Util.global_id_x b in
  let gy = Util.global_id_y b in
  let w4 = B.reg b in
  B.shl b w4 (p 3) (i 2);
  let g_addr = B.reg b in
  B.mul b g_addr (r gy) (r w4);
  B.add b g_addr (r g_addr) (p 0);
  let gx4 = B.reg b in
  B.shl b gx4 (r gx) (i 2);
  B.add b g_addr (r g_addr) (r gx4);
  let v = B.reg b in
  B.ld b Instr.Global v (r g_addr) ();
  (* tile slot in bytes *)
  let s_idx = B.reg b in
  B.mad b s_idx tid_y (i bs) tid_x;
  B.shl b s_idx (r s_idx) (i 2);
  B.st b Instr.Shared (r s_idx) (r v);
  B.bar b;
  (* Row pass: tmp[ty][tx] = sum_k coef[tx][k] * tile[ty][k] *)
  let acc = B.reg b in
  B.mov b acc (f 0.0);
  let coef_row = B.reg b in
  B.mad b coef_row tid_x (i (bs * 4)) (p 2);
  let tile_row = B.reg b in
  B.mul b tile_row tid_y (i (bs * 4));
  (* fully unrolled, as nvcc compiles the SDK kernel: per step one
     conditionally redundant coefficient load and one vector tile load *)
  let cv = B.reg b and tv = B.reg b in
  for k = 0 to bs - 1 do
    B.ld b Instr.Global cv (r coef_row) ~off:(k * 4) ();
    B.ld b Instr.Shared tv (r tile_row) ~off:(k * 4) ();
    B.fma b acc (r cv) (r tv) (r acc)
  done;
  B.st b Instr.Shared (r s_idx) ~off:(bs * bs * 4) (r acc);
  B.bar b;
  (* Column pass: out[ty][tx] = sum_k coef[ty][k] * tmp[k][tx] *)
  let acc2 = B.reg b in
  B.mov b acc2 (f 0.0);
  let coef_row2 = B.reg b in
  B.mad b coef_row2 tid_y (i (bs * 4)) (p 2);
  let tx4 = B.reg b in
  B.mad b tx4 tid_x (i 4) (i (bs * bs * 4));
  (* column pass, unrolled: vector coefficient load plus the
     conditionally redundant tmp[k][tx] shared load (unstructured
     redundancy, §2) *)
  let cv2 = B.reg b and tv2 = B.reg b in
  for k = 0 to bs - 1 do
    B.ld b Instr.Global cv2 (r coef_row2) ~off:(k * 4) ();
    B.ld b Instr.Shared tv2 (r tx4) ~off:(k * bs * 4) ();
    B.fma b acc2 (r cv2) (r tv2) (r acc2)
  done;
  let out_addr = B.reg b in
  B.mul b out_addr (r gy) (r w4);
  B.add b out_addr (r out_addr) (p 1);
  B.add b out_addr (r out_addr) (r gx4);
  B.st b Instr.Global (r out_addr) (r acc2);
  B.exit_ b;
  B.finish b

let reference ~w ~h src =
  let tmp = Array.make (w * h) 0.0 and out = Array.make (w * h) 0.0 in
  let tiles_x = w / bs and tiles_y = h / bs in
  for ty = 0 to tiles_y - 1 do
    for tx = 0 to tiles_x - 1 do
      let at arr y x = arr.(((ty * bs) + y) * w + (tx * bs) + x) in
      let set arr y x v = arr.(((ty * bs) + y) * w + (tx * bs) + x) <- v in
      for y = 0 to bs - 1 do
        for x = 0 to bs - 1 do
          let acc = ref 0.0 in
          for k = 0 to bs - 1 do
            acc := Util.r32 (Util.r32 (coef_table.(x).(k) *. at src y k) +. !acc)
          done;
          set tmp y x !acc
        done
      done;
      for y = 0 to bs - 1 do
        for x = 0 to bs - 1 do
          let acc = ref 0.0 in
          for k = 0 to bs - 1 do
            acc := Util.r32 (Util.r32 (coef_table.(y).(k) *. at tmp k x) +. !acc)
          done;
          set out y x !acc
        done
      done
    done
  done;
  out

let prepare ~scale =
  let w = 64 * scale and h = 64 in
  let kernel = build () in
  let mem = Darsie_emu.Memory.create () in
  let rng = Util.Rng.create 23 in
  let src = Util.Rng.f32_array rng (w * h) 255.0 in
  let src_base = Darsie_emu.Memory.alloc mem (4 * w * h) in
  let dst_base = Darsie_emu.Memory.alloc mem (4 * w * h) in
  let coef_base = Darsie_emu.Memory.alloc mem (4 * bs * bs) in
  Darsie_emu.Memory.write_f32s mem src_base src;
  Darsie_emu.Memory.write_f32s mem coef_base
    (Array.concat (Array.to_list coef_table));
  let launch =
    Kernel.launch kernel
      ~grid:(Kernel.dim3 (w / bs) ~y:(h / bs))
      ~block:(Kernel.dim3 bs ~y:bs)
      ~params:[| src_base; dst_base; coef_base; w |]
  in
  let verify mem' =
    Workload.check_f32 ~tol:1e-2 ~name:"DCT8x8"
      ~expected:(reference ~w ~h src)
      (Darsie_emu.Memory.read_f32s mem' dst_base (w * h))
  in
  { Workload.mem; launch; verify }

let workload =
  {
    Workload.abbr = "DCT8x8";
    full_name = "DCT8x8";
    suite = "CUDA SDK";
    block_dim = (8, 8);
    dimensionality = Workload.D2;
    prepare;
  }
