(* BP — Backprop layerforward (Rodinia), 16x16 threadblocks.

   Each block multiplies a 16-element input slice against a 16x16 weight
   tile in shared memory and tree-reduces the products along the y
   dimension. The reduction's `ty < s` steps cause warp-level divergence
   (and intra-warp divergence at the final step), exercising DARSIE's
   majority-path handling; barriers between steps reset the majority mask
   as in the paper's §4.3.3. *)

open Darsie_isa
module B = Builder

let bdim = 16

(* shared layout: input_node[16] floats at 0, matrix[16][16] at 64 *)
let matrix_base = 64

let build () =
  let b =
    B.create ~name:"bpnn_layerforward" ~nparams:4
      ~shared_bytes:(matrix_base + (bdim * bdim * 4))
      ()
  in
  let open B.O in
  (* params: 0=input 1=weight 2=partial_out 3=wcols *)
  let is_first_col = B.pred b in
  B.setp b Instr.Scmp Instr.Eq is_first_col tid_x (i 0);
  (* threads in column 0 stage the input slice into shared memory *)
  let in_addr = B.reg b in
  B.mad b in_addr ctaid_y (i bdim) tid_y;
  B.shl b in_addr (r in_addr) (i 2);
  B.add b in_addr (r in_addr) (p 0);
  let in_v = B.reg b in
  B.emit b ~guard:(true, is_first_col)
    (Instr.Ld (Instr.Global, in_v, Instr.Reg in_addr, 0));
  let sh_in = B.reg b in
  B.shl b sh_in tid_y (i 2);
  B.emit b ~guard:(true, is_first_col)
    (Instr.St (Instr.Shared, Instr.Reg sh_in, 0, Instr.Reg in_v));
  B.bar b;
  (* weight tile load and product *)
  let row = B.reg b in
  B.mad b row ctaid_y (i bdim) tid_y;
  let col = B.reg b in
  B.mad b col ctaid_x (i bdim) tid_x;
  let w4 = B.reg b in
  B.shl b w4 (p 3) (i 2);
  let w_addr = B.reg b in
  B.mul b w_addr (r row) (r w4);
  B.add b w_addr (r w_addr) (p 1);
  let col4 = B.reg b in
  B.shl b col4 (r col) (i 2);
  B.add b w_addr (r w_addr) (r col4);
  let wt = B.reg b in
  B.ld b Instr.Global wt (r w_addr) ();
  let node = B.reg b in
  B.ld b Instr.Shared node (r sh_in) ();
  let prod = B.reg b in
  B.fmul b prod (r wt) (r node);
  let slot = B.reg b in
  B.mad b slot tid_y (i bdim) tid_x;
  B.shl b slot (r slot) (i 2);
  B.add b slot (r slot) (i matrix_base);
  B.st b Instr.Shared (r slot) (r prod);
  B.bar b;
  (* tree reduction along y: s = 8, 4, 2, 1 *)
  Util.counted_loop b ~bound:(i 4) (fun t ->
      let s = B.reg b in
      B.mov b s (i 8);
      B.bin b Instr.Shr_u s (r s) (r t);
      let skip = B.fresh_label b in
      let p_out = B.pred b in
      B.setp b Instr.Scmp Instr.Ge p_out tid_y (r s);
      B.bra b ~guard:(true, p_out) skip;
      let other = B.reg b in
      B.add b other tid_y (r s);
      B.mad b other (r other) (i bdim) tid_x;
      B.shl b other (r other) (i 2);
      B.add b other (r other) (i matrix_base);
      let ov = B.reg b in
      B.ld b Instr.Shared ov (r other) ();
      let mine = B.reg b in
      B.ld b Instr.Shared mine (r slot) ();
      B.fadd b mine (r mine) (r ov);
      B.st b Instr.Shared (r slot) (r mine);
      B.place b skip;
      B.bar b);
  (* row 0 writes the per-block partial sums *)
  let p_row0 = B.pred b in
  B.setp b Instr.Scmp Instr.Eq p_row0 tid_y (i 0);
  let res_slot = B.reg b in
  B.shl b res_slot tid_x (i 2);
  B.add b res_slot (r res_slot) (i matrix_base);
  let res = B.reg b in
  B.ld b Instr.Shared res (r res_slot) ();
  let o_addr = B.reg b in
  B.mad b o_addr ctaid_y nctaid_x ctaid_x;
  B.mad b o_addr (r o_addr) (i bdim) tid_x;
  B.shl b o_addr (r o_addr) (i 2);
  B.add b o_addr (r o_addr) (p 2);
  B.emit b ~guard:(true, p_row0)
    (Instr.St (Instr.Global, Instr.Reg o_addr, 0, Instr.Reg res));
  B.exit_ b;
  B.finish b

let reference ~gx ~gy ~wcols input weight =
  let r32 = Util.r32 in
  let out = Array.make (gx * gy * bdim) 0.0 in
  for by = 0 to gy - 1 do
    for bx = 0 to gx - 1 do
      for tx = 0 to bdim - 1 do
        (* tree reduction order: pairwise with strides 8,4,2,1 *)
        let vals =
          Array.init bdim (fun ty ->
              r32
                (weight.((((by * bdim) + ty) * wcols) + (bx * bdim) + tx)
                *. input.((by * bdim) + ty)))
        in
        let s = ref 8 in
        while !s >= 1 do
          for ty = 0 to !s - 1 do
            vals.(ty) <- r32 (vals.(ty) +. vals.(ty + !s))
          done;
          s := !s / 2
        done;
        out.((((by * gx) + bx) * bdim) + tx) <- vals.(0)
      done
    done
  done;
  out

let prepare ~scale =
  let gx = 2 * scale and gy = 4 in
  let wcols = gx * bdim and wrows = gy * bdim in
  let kernel = build () in
  let mem = Darsie_emu.Memory.create () in
  let rng = Util.Rng.create 71 in
  let input = Util.Rng.f32_array rng wrows 1.0 in
  let weight = Util.Rng.f32_array rng (wrows * wcols) 1.0 in
  let i_base = Darsie_emu.Memory.alloc mem (4 * wrows) in
  let w_base = Darsie_emu.Memory.alloc mem (4 * wrows * wcols) in
  let o_base = Darsie_emu.Memory.alloc mem (4 * gx * gy * bdim) in
  Darsie_emu.Memory.write_f32s mem i_base input;
  Darsie_emu.Memory.write_f32s mem w_base weight;
  let launch =
    Kernel.launch kernel
      ~grid:(Kernel.dim3 gx ~y:gy)
      ~block:(Kernel.dim3 bdim ~y:bdim)
      ~params:[| i_base; w_base; o_base; wcols |]
  in
  let verify mem' =
    Workload.check_f32 ~tol:1e-3 ~name:"BP"
      ~expected:(reference ~gx ~gy ~wcols input weight)
      (Darsie_emu.Memory.read_f32s mem' o_base (gx * gy * bdim))
  in
  { Workload.mem; launch; verify }

let workload =
  {
    Workload.abbr = "BP";
    full_name = "Backprop";
    suite = "Rodinia";
    block_dim = (16, 16);
    dimensionality = Workload.D2;
    prepare;
  }
