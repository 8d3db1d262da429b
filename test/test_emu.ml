(* Tests for the functional emulator: memory, SIMT stack, instruction
   semantics, divergence/reconvergence, barriers and atomics. *)

open Darsie_isa
open Darsie_emu

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

let parse = Parser.parse_kernel

let run_kernel ?(grid = Kernel.dim3 1) ?(block = Kernel.dim3 32) ?on_exec
    ?(config = Interp.default_config) k params mem =
  let launch = Kernel.launch k ~grid ~block ~params in
  Interp.run ~config ?on_exec mem launch

(* ------------------------------------------------------------------ *)
(* Memory                                                              *)
(* ------------------------------------------------------------------ *)

let test_memory_basics () =
  let m = Memory.create () in
  Memory.store_u32 m 0x100 42;
  check_int "load back" 42 (Memory.load_u32 m 0x100);
  check_int "unwritten reads zero" 0 (Memory.load_u32 m 0x200);
  Memory.store_f32 m 0x104 1.5;
  Alcotest.(check (float 0.0)) "float roundtrip" 1.5 (Memory.load_f32 m 0x104)

let test_memory_alignment () =
  let m = Memory.create () in
  Alcotest.check_raises "misaligned"
    (Invalid_argument "Memory: misaligned word access at 0x101") (fun () ->
      ignore (Memory.load_u32 m 0x101))

let test_memory_alloc () =
  let m = Memory.create () in
  let a = Memory.alloc m 100 in
  let b = Memory.alloc m 8 in
  check_bool "alloc aligned" true (a land 255 = 0);
  check_bool "regions disjoint" true (b >= a + 100);
  Memory.write_i32s m a [| 1; -2; 3 |];
  Alcotest.(check (array int)) "i32 roundtrip" [| 1; -2; 3 |] (Memory.read_i32s m a 3)

let test_memory_growth () =
  let m = Memory.create ~initial_bytes:16 () in
  Memory.store_u32 m 0x10000 7;
  check_int "grown" 7 (Memory.load_u32 m 0x10000)

(* ------------------------------------------------------------------ *)
(* SIMT stack                                                          *)
(* ------------------------------------------------------------------ *)

let test_stack_uniform () =
  let s = Simt_stack.create ~full_mask:0xF in
  check_int "initial pc" 0 (Simt_stack.pc s);
  check_int "initial mask" 0xF (Simt_stack.active_mask s);
  Simt_stack.advance s 5;
  check_int "advanced" 5 (Simt_stack.pc s)

let test_stack_divergence () =
  let s = Simt_stack.create ~full_mask:0xF in
  Simt_stack.advance s 1;
  Simt_stack.diverge s ~reconv:10 ~taken_pc:5 ~taken_mask:0x3 ~fallthrough_pc:2;
  check_int "taken path on top" 5 (Simt_stack.pc s);
  check_int "taken mask" 0x3 (Simt_stack.active_mask s);
  check_int "depth" 3 (Simt_stack.depth s);
  (* taken path reaches reconvergence *)
  Simt_stack.advance s 10;
  Simt_stack.reconverge_if_needed s;
  check_int "fallthrough now" 2 (Simt_stack.pc s);
  check_int "fallthrough mask" 0xC (Simt_stack.active_mask s);
  Simt_stack.advance s 10;
  Simt_stack.reconverge_if_needed s;
  check_int "reconverged pc" 10 (Simt_stack.pc s);
  check_int "full mask back" 0xF (Simt_stack.active_mask s)

let test_stack_retire () =
  let s = Simt_stack.create ~full_mask:0xF in
  Simt_stack.retire_lanes s 0x3;
  check_int "lanes gone" 0xC (Simt_stack.active_mask s);
  Simt_stack.retire_lanes s 0xC;
  check_bool "finished" true (Simt_stack.finished s)

let test_stack_bad_diverge () =
  let s = Simt_stack.create ~full_mask:0xF in
  Alcotest.check_raises "full mask not a divergence"
    (Invalid_argument "Simt_stack.diverge: mask is not a proper subset")
    (fun () ->
      Simt_stack.diverge s ~reconv:1 ~taken_pc:1 ~taken_mask:0xF
        ~fallthrough_pc:1)

(* ------------------------------------------------------------------ *)
(* Straight-line execution                                             *)
(* ------------------------------------------------------------------ *)

let test_exec_saxpy_like () =
  (* out[i] = a * in[i] + b for one 32-thread block *)
  let k =
    parse
      {|
.kernel axpb
.params 4
  shl.b32 %r0, %tid.x, 2;
  add.u32 %r1, %r0, %param0;
  ld.global.u32 %r2, [%r1+0];
  mul.lo.u32 %r3, %r2, %param2;
  add.u32 %r3, %r3, %param3;
  add.u32 %r4, %r0, %param1;
  st.global.u32 [%r4+0], %r3;
  exit;
|}
  in
  let m = Memory.create () in
  let src = Memory.alloc m 128 and dst = Memory.alloc m 128 in
  Memory.write_i32s m src (Array.init 32 (fun i -> i));
  let stats = run_kernel k [| src; dst; 3; 7 |] m in
  let out = Memory.read_i32s m dst 32 in
  Array.iteri
    (fun i v -> check_int (Printf.sprintf "out[%d]" i) ((3 * i) + 7) v)
    out;
  check_int "one warp, 8 instructions" 8 stats.Interp.warp_insts;
  check_int "thread instructions" (8 * 32) stats.Interp.thread_insts

let test_exec_float () =
  let k =
    parse
      {|
.kernel fsq
.params 2
  shl.b32 %r0, %tid.x, 2;
  add.u32 %r1, %r0, %param0;
  ld.global.u32 %r2, [%r1+0];
  mul.f32 %r3, %r2, %r2;
  sqrt.f32 %r4, %r3;
  add.u32 %r5, %r0, %param1;
  st.global.u32 [%r5+0], %r4;
  exit;
|}
  in
  let m = Memory.create () in
  let src = Memory.alloc m 128 and dst = Memory.alloc m 128 in
  Memory.write_f32s m src (Array.init 32 (fun i -> float_of_int i));
  ignore (run_kernel k [| src; dst |] m);
  let out = Memory.read_f32s m dst 32 in
  Array.iteri
    (fun i v ->
      Alcotest.(check (float 1e-4))
        (Printf.sprintf "sqrt(%d^2)" i)
        (float_of_int i) v)
    out

let test_exec_special_registers () =
  (* each thread stores its global linear id computed from sregs *)
  let k =
    parse
      {|
.kernel ids
.params 1
  mad.lo.u32 %r0, %ctaid.x, %ntid.x, %tid.x;
  shl.b32 %r1, %r0, 2;
  add.u32 %r1, %r1, %param0;
  st.global.u32 [%r1+0], %r0;
  exit;
|}
  in
  let m = Memory.create () in
  let dst = Memory.alloc m (4 * 64) in
  ignore (run_kernel ~grid:(Kernel.dim3 2) ~block:(Kernel.dim3 32) k [| dst |] m);
  let out = Memory.read_i32s m dst 64 in
  Array.iteri (fun i v -> check_int "global id" i v) out

let test_exec_2d_tids () =
  (* store tid.x + 100*tid.y at the thread's linear offset *)
  let k =
    parse
      {|
.kernel tid2d
.params 1
  mul.lo.u32 %r0, %tid.y, %ntid.x;
  add.u32 %r0, %r0, %tid.x;
  mul.lo.u32 %r1, %tid.y, 100;
  add.u32 %r1, %r1, %tid.x;
  shl.b32 %r2, %r0, 2;
  add.u32 %r2, %r2, %param0;
  st.global.u32 [%r2+0], %r1;
  exit;
|}
  in
  let m = Memory.create () in
  let dst = Memory.alloc m (4 * 64) in
  ignore (run_kernel ~block:(Kernel.dim3 8 ~y:8) k [| dst |] m);
  let out = Memory.read_i32s m dst 64 in
  for y = 0 to 7 do
    for x = 0 to 7 do
      check_int
        (Printf.sprintf "thread (%d,%d)" x y)
        (x + (100 * y))
        out.((y * 8) + x)
    done
  done

(* ------------------------------------------------------------------ *)
(* Control flow                                                        *)
(* ------------------------------------------------------------------ *)

let test_exec_divergence () =
  (* threads below 16 get value 1, others 2; all reconverge and add 10 *)
  let k =
    parse
      {|
.kernel div
.params 1
  setp.lt.s32 %p0, %tid.x, 16;
@%p0 bra low;
  mov.u32 %r0, 2;
  bra join;
low:
  mov.u32 %r0, 1;
join:
  add.u32 %r0, %r0, 10;
  shl.b32 %r1, %tid.x, 2;
  add.u32 %r1, %r1, %param0;
  st.global.u32 [%r1+0], %r0;
  exit;
|}
  in
  let m = Memory.create () in
  let dst = Memory.alloc m 128 in
  let stats = run_kernel k [| dst |] m in
  let out = Memory.read_i32s m dst 32 in
  Array.iteri
    (fun i v -> check_int (Printf.sprintf "thread %d" i) (if i < 16 then 11 else 12) v)
    out;
  check_bool "divergence happened" true (stats.Interp.max_stack_depth >= 3)

let test_exec_loop () =
  (* each thread sums 0..tid.x *)
  let k =
    parse
      {|
.kernel tri
.params 1
  mov.u32 %r0, 0;
  mov.u32 %r1, 0;
top:
  setp.gt.s32 %p0, %r1, %tid.x;
@%p0 bra done;
  add.u32 %r0, %r0, %r1;
  add.u32 %r1, %r1, 1;
  bra top;
done:
  shl.b32 %r2, %tid.x, 2;
  add.u32 %r2, %r2, %param0;
  st.global.u32 [%r2+0], %r0;
  exit;
|}
  in
  let m = Memory.create () in
  let dst = Memory.alloc m 128 in
  ignore (run_kernel k [| dst |] m);
  let out = Memory.read_i32s m dst 32 in
  Array.iteri
    (fun i v -> check_int (Printf.sprintf "sum 0..%d" i) (i * (i + 1) / 2) v)
    out

let test_exec_nested_divergence () =
  let k =
    parse
      {|
.kernel nest
.params 1
  mov.u32 %r0, 0;
  setp.lt.s32 %p0, %tid.x, 16;
@!%p0 bra outer_else;
  setp.lt.s32 %p1, %tid.x, 8;
@!%p1 bra inner_else;
  add.u32 %r0, %r0, 1;
  bra inner_join;
inner_else:
  add.u32 %r0, %r0, 2;
inner_join:
  add.u32 %r0, %r0, 10;
  bra outer_join;
outer_else:
  add.u32 %r0, %r0, 3;
outer_join:
  add.u32 %r0, %r0, 100;
  shl.b32 %r1, %tid.x, 2;
  add.u32 %r1, %r1, %param0;
  st.global.u32 [%r1+0], %r0;
  exit;
|}
  in
  let m = Memory.create () in
  let dst = Memory.alloc m 128 in
  ignore (run_kernel k [| dst |] m);
  let out = Memory.read_i32s m dst 32 in
  Array.iteri
    (fun i v ->
      let expected = if i < 8 then 111 else if i < 16 then 112 else 103 in
      check_int (Printf.sprintf "thread %d" i) expected v)
    out

let test_exec_predicated_store () =
  (* only even threads store *)
  let k =
    parse
      {|
.kernel evens
.params 1
  and.b32 %r0, %tid.x, 1;
  setp.eq.s32 %p0, %r0, 0;
  shl.b32 %r1, %tid.x, 2;
  add.u32 %r1, %r1, %param0;
@%p0 st.global.u32 [%r1+0], 7;
  exit;
|}
  in
  let m = Memory.create () in
  let dst = Memory.alloc m 128 in
  ignore (run_kernel k [| dst |] m);
  let out = Memory.read_i32s m dst 32 in
  Array.iteri
    (fun i v -> check_int (Printf.sprintf "thread %d" i) (if i mod 2 = 0 then 7 else 0) v)
    out

(* ------------------------------------------------------------------ *)
(* Shared memory and barriers                                          *)
(* ------------------------------------------------------------------ *)

let test_exec_shared_reverse () =
  (* block-wide reverse through shared memory, needs the barrier *)
  let k =
    parse
      {|
.kernel rev
.params 2
.shared 256
  shl.b32 %r0, %tid.x, 2;
  add.u32 %r1, %r0, %param0;
  ld.global.u32 %r2, [%r1+0];
  st.shared.u32 [%r0+0], %r2;
  bar.sync;
  sub.u32 %r3, %ntid.x, %tid.x;
  sub.u32 %r3, %r3, 1;
  shl.b32 %r3, %r3, 2;
  ld.shared.u32 %r4, [%r3+0];
  add.u32 %r5, %r0, %param1;
  st.global.u32 [%r5+0], %r4;
  exit;
|}
  in
  let m = Memory.create () in
  let src = Memory.alloc m 256 and dst = Memory.alloc m 256 in
  Memory.write_i32s m src (Array.init 64 (fun i -> i * i));
  ignore (run_kernel ~block:(Kernel.dim3 64) k [| src; dst |] m);
  let out = Memory.read_i32s m dst 64 in
  Array.iteri
    (fun i v -> check_int (Printf.sprintf "rev[%d]" i) ((63 - i) * (63 - i)) v)
    out

let test_exec_barrier_under_divergence_faults () =
  let k =
    parse
      {|
.kernel bad
  setp.lt.s32 %p0, %tid.x, 4;
@!%p0 bra skip;
  bar.sync;
skip:
  exit;
|}
  in
  let m = Memory.create () in
  check_bool "faults" true
    (match run_kernel k [||] m with
    | exception Interp.Fault _ -> true
    | _ -> false)

let test_exec_shared_out_of_bounds_faults () =
  let k =
    parse
      {|
.kernel oob
.shared 16
  st.shared.u32 [64], 1;
  exit;
|}
  in
  let m = Memory.create () in
  check_bool "faults" true
    (match run_kernel ~block:(Kernel.dim3 1) k [||] m with
    | exception Interp.Fault _ -> true
    | _ -> false)

let test_exec_shared_fault_texts () =
  let fault_of body =
    let k = parse (".kernel oob\n.shared 16\n" ^ body ^ "\n  exit;\n") in
    match run_kernel ~block:(Kernel.dim3 1) k [||] (Memory.create ()) with
    | exception Interp.Fault m -> m
    | _ -> "no fault"
  in
  Alcotest.(check string)
    "store past the end" "shared store out of bounds or misaligned: 0x40"
    (fault_of "  st.shared.u32 [64], 1;");
  Alcotest.(check string)
    "misaligned load" "shared load out of bounds or misaligned: 0x2"
    (fault_of "  ld.shared.u32 %r0, [2];")

(* ------------------------------------------------------------------ *)
(* Atomics                                                             *)
(* ------------------------------------------------------------------ *)

let test_exec_atomic_add () =
  let k =
    parse
      {|
.kernel count
.params 1
  atom.global.add.u32 %r0, [%param0], 1;
  exit;
|}
  in
  let m = Memory.create () in
  let cell = Memory.alloc m 4 in
  ignore (run_kernel ~grid:(Kernel.dim3 4) ~block:(Kernel.dim3 64) k [| cell |] m);
  check_int "256 increments" 256 (Memory.load_u32 m cell)

let test_exec_atomic_max () =
  let k =
    parse
      {|
.kernel peak
.params 1
  mad.lo.u32 %r1, %ctaid.x, %ntid.x, %tid.x;
  atom.global.max.u32 %r0, [%param0], %r1;
  exit;
|}
  in
  let m = Memory.create () in
  let cell = Memory.alloc m 4 in
  ignore (run_kernel ~grid:(Kernel.dim3 3) ~block:(Kernel.dim3 32) k [| cell |] m);
  check_int "max id" 95 (Memory.load_u32 m cell)

(* ------------------------------------------------------------------ *)
(* Trace callback                                                      *)
(* ------------------------------------------------------------------ *)

let test_trace_callback () =
  let k =
    parse
      {|
.kernel t
.params 1
  mov.u32 %r0, %tid.x;
loop:
  sub.u32 %r0, %r0, 1;
  setp.gt.s32 %p0, %r0, 0;
@%p0 bra loop;
  st.global.u32 [%param0], %r0;
  exit;
|}
  in
  let m = Memory.create () in
  let dst = Memory.alloc m 4 in
  let records = ref [] in
  let config = { Interp.warp_size = 4; capture_operands = true } in
  ignore
    (run_kernel ~block:(Kernel.dim3 4) ~config
       ~on_exec:(fun r -> records := r :: !records)
       k [| dst |] m);
  let records = List.rev !records in
  check_bool "records present" true (List.length records > 5);
  let first = List.hd records in
  check_int "first record inst" 0 first.Interp.inst_index;
  check_int "first record occ" 0 first.Interp.occ;
  check_int "full mask" 0xF first.Interp.active;
  (match first.Interp.dst_values with
  | Some v ->
    Alcotest.(check (array int)) "captured tid.x" [| 0; 1; 2; 3 |] v
  | None -> Alcotest.fail "expected dst capture");
  (* occurrence counters: the loop body executes multiple times *)
  let subs = List.filter (fun r -> r.Interp.inst_index = 1) records in
  check_int "loop iterations = max tid" 3 (List.length subs);
  let occs = List.map (fun r -> r.Interp.occ) subs in
  Alcotest.(check (list int)) "occurrences count up" [ 0; 1; 2 ] occs

(* Captured operands are the values the instruction read, taken before it
   writes its destination. *)
let captured ~inst k params mem =
  let config = { Interp.warp_size = 4; capture_operands = true } in
  let seen = ref None in
  ignore
    (run_kernel ~block:(Kernel.dim3 4) ~config
       ~on_exec:(fun r -> if r.Interp.inst_index = inst then seen := Some r)
       k params mem);
  match !seen with
  | Some r -> r
  | None -> Alcotest.fail "instruction never executed"

let test_operands_before_write () =
  let k =
    parse
      {|
.kernel inplace
  mov.u32 %r1, %tid.x;
  add.u32 %r1, %r1, 1;
  exit;
|}
  in
  let r = captured ~inst:1 k [||] (Memory.create ()) in
  Alcotest.(check (array (array int)))
    "add reads %r1 before writing it"
    [| [| 0; 1; 2; 3 |]; [| 1; 1; 1; 1 |] |]
    r.Interp.operands;
  Alcotest.(check (option (array int)))
    "destination after the write" (Some [| 1; 2; 3; 4 |]) r.Interp.dst_values

let test_operands_cas_compare () =
  (* CAS reads its destination as the compare value: the operand is the
     register before the swap overwrites it with the old memory word. *)
  let k =
    parse
      {|
.kernel cas
.params 1
  mov.u32 %r0, 7;
  shl.b32 %r2, %tid.x, 2;
  add.u32 %r2, %r2, %param0;
  atom.global.cas.b32 %r0, [%r2], 9;
  exit;
|}
  in
  let m = Memory.create () in
  let base = Memory.alloc m 16 in
  Memory.write_i32s m base [| 7; 5; 7; 5 |];
  let r = captured ~inst:3 k [| base |] m in
  let addrs = Array.init 4 (fun lane -> base + (4 * lane)) in
  Alcotest.(check (array (array int)))
    "address, swap value, compare value before the swap"
    [| addrs; [| 9; 9; 9; 9 |]; [| 7; 7; 7; 7 |] |]
    r.Interp.operands;
  Alcotest.(check (option (array int)))
    "destination holds the old words" (Some [| 7; 5; 7; 5 |])
    r.Interp.dst_values;
  Alcotest.(check (array int))
    "matching lanes swapped" [| 9; 5; 9; 5 |] (Memory.read_i32s m base 4)

let test_partial_last_warp () =
  (* 40 threads: warp 1 runs with an 8-lane mask *)
  let k =
    parse
      {|
.kernel p
.params 1
  shl.b32 %r0, %tid.x, 2;
  add.u32 %r0, %r0, %param0;
  st.global.u32 [%r0+0], 5;
  exit;
|}
  in
  let m = Memory.create () in
  let dst = Memory.alloc m 256 in
  let masks = ref [] in
  ignore
    (run_kernel ~block:(Kernel.dim3 40)
       ~on_exec:(fun r -> if r.Interp.warp = 1 then masks := r.Interp.active :: !masks)
       k [| dst |] m);
  check_bool "warp 1 uses partial mask" true
    (List.for_all (fun m -> m = 0xFF) !masks);
  let out = Memory.read_i32s m dst 41 in
  check_int "thread 39 stored" 5 out.(39);
  check_int "thread 40 untouched" 0 out.(40)

(* The step allocates nothing per lane: a bare run of MM at scale 1
   (no observer) stays within a small per-instruction budget, which
   covers the run's own set-up (CFG, warp state) spread over its
   instructions. *)
let test_step_allocation () =
  let p =
    Darsie_workloads.Matmul.workload.Darsie_workloads.Workload.prepare ~scale:1
  in
  let before = Gc.minor_words () in
  let s =
    Interp.run p.Darsie_workloads.Workload.mem
      p.Darsie_workloads.Workload.launch
  in
  let per_inst =
    (Gc.minor_words () -. before) /. float_of_int s.Interp.warp_insts
  in
  check_bool
    (Printf.sprintf "%.1f minor words per warp instruction (bound 16)"
       per_inst)
    true (per_inst <= 16.0)

(* ------------------------------------------------------------------ *)
(* Differential testing: SIMT emulator vs a scalar per-thread
   interpreter on random straight-line kernels                          *)
(* ------------------------------------------------------------------ *)

let nregs_diff = 6

let npregs_diff = 2

(* An independent scalar interpreter: one thread at a time, no SIMT
   machinery. Any divergence from the emulator is a bug in one of them. *)
let scalar_eval_kernel (k : Kernel.t) ~params ~block_x ~tid =
  let regs = Array.make (max k.Kernel.nregs 1) Value.zero in
  let preds = Array.make (max k.Kernel.npregs 1) false in
  let operand = function
    | Instr.Reg r -> regs.(r)
    | Instr.Imm v -> v
    | Instr.Param i -> params.(i)
    | Instr.Sreg (Instr.Tid Instr.X) -> tid
    | Instr.Sreg (Instr.Ntid Instr.X) -> block_x
    | Instr.Sreg (Instr.Ctaid _ | Instr.Nctaid _) -> 0
    | Instr.Sreg _ -> 0
  in
  Array.iter
    (fun (inst : Instr.t) ->
      let active =
        match inst.Instr.guard with
        | None -> true
        | Some (sense, p) -> preds.(p) = sense
      in
      if active then
        match inst.Instr.body with
        | Instr.Bin (op, d, a, b) ->
          let x = operand a and y = operand b in
          regs.(d) <-
            (match op with
            | Instr.Add -> Value.add x y
            | Instr.Sub -> Value.sub x y
            | Instr.Mul -> Value.mul x y
            | Instr.Mulhi -> Value.mulhi_s x y
            | Instr.Div_s -> Value.div_s x y
            | Instr.Div_u -> Value.div_u x y
            | Instr.Rem_s -> Value.rem_s x y
            | Instr.Rem_u -> Value.rem_u x y
            | Instr.Min_s -> Value.min_s x y
            | Instr.Max_s -> Value.max_s x y
            | Instr.Min_u -> Value.min_u x y
            | Instr.Max_u -> Value.max_u x y
            | Instr.And -> Value.logand x y
            | Instr.Or -> Value.logor x y
            | Instr.Xor -> Value.logxor x y
            | Instr.Shl -> Value.shl x y
            | Instr.Shr_u -> Value.shr_u x y
            | Instr.Shr_s -> Value.shr_s x y
            | Instr.Fadd -> Value.fadd x y
            | Instr.Fsub -> Value.fsub x y
            | Instr.Fmul -> Value.fmul x y
            | Instr.Fdiv -> Value.fdiv x y
            | Instr.Fmin -> Value.fmin x y
            | Instr.Fmax -> Value.fmax x y)
        | Instr.Un (op, d, a) ->
          let x = operand a in
          regs.(d) <-
            (match op with
            | Instr.Mov -> x
            | Instr.Not -> Value.lognot x
            | Instr.Neg -> Value.neg x
            | Instr.Abs_s -> Value.abs_s x
            | Instr.Fneg -> Value.fneg x
            | Instr.Fabs -> Value.fabs x
            | Instr.Fsqrt -> Value.fsqrt x
            | Instr.Frcp -> Value.frcp x
            | Instr.Fexp2 -> Value.fexp2 x
            | Instr.Flog2 -> Value.flog2 x
            | Instr.Fsin -> Value.fsin x
            | Instr.Fcos -> Value.fcos x
            | Instr.Cvt_i2f -> Value.cvt_i2f x
            | Instr.Cvt_u2f -> Value.cvt_u2f x
            | Instr.Cvt_f2i -> Value.cvt_f2i x)
        | Instr.Tern (op, d, a, b, c) ->
          let x = operand a and y = operand b and z = operand c in
          regs.(d) <-
            (match op with
            | Instr.Mad -> Value.add (Value.mul x y) z
            | Instr.Fma -> Value.ffma x y z)
        | Instr.Setp (kind, cmp, p, a, b) ->
          let x = operand a and y = operand b in
          let test c =
            match cmp with
            | Instr.Eq -> c = 0
            | Instr.Ne -> c <> 0
            | Instr.Lt -> c < 0
            | Instr.Le -> c <= 0
            | Instr.Gt -> c > 0
            | Instr.Ge -> c >= 0
          in
          preds.(p) <-
            (match kind with
            | Instr.Scmp -> test (Value.cmp_s x y)
            | Instr.Ucmp -> test (Value.cmp_u x y)
            | Instr.Fcmp -> (
              match Value.cmp_f x y with
              | None -> cmp = Instr.Ne
              | Some c -> test c))
        | Instr.Selp (d, a, b, p) ->
          regs.(d) <- (if preds.(p) then operand a else operand b)
        | Instr.Ld _ | Instr.St _ | Instr.Atom _ | Instr.Bra _ | Instr.Bar
        | Instr.Exit ->
          ())
    k.Kernel.insts;
  regs

let diff_body_gen =
  let open QCheck.Gen in
  let reg = int_bound (nregs_diff - 1) in
  let operand =
    oneof
      [
        map (fun r -> Instr.Reg r) reg;
        map (fun v -> Instr.Imm (Value.truncate (abs v))) (int_bound 0xFFFFF);
        return (Instr.Sreg (Instr.Tid Instr.X));
        map (fun i -> Instr.Param i) (int_bound 1);
      ]
  in
  let binop =
    oneofl
      [
        Instr.Add; Instr.Sub; Instr.Mul; Instr.Mulhi; Instr.Div_s;
        Instr.Div_u; Instr.Rem_s; Instr.Rem_u; Instr.Min_s; Instr.Max_u;
        Instr.And; Instr.Or; Instr.Xor; Instr.Shl; Instr.Shr_u; Instr.Shr_s;
        Instr.Fadd; Instr.Fmul;
      ]
  in
  let unop =
    oneofl
      [ Instr.Mov; Instr.Not; Instr.Neg; Instr.Abs_s; Instr.Cvt_i2f;
        Instr.Cvt_u2f ]
  in
  let guard =
    oneof
      [ return None; map (fun s -> Some (s, 0)) bool;
        map (fun s -> Some (s, 1)) bool ]
  in
  let body =
    oneof
      [
        map3 (fun op d (a, b) -> Instr.Bin (op, d, a, b)) binop reg
          (pair operand operand);
        map3 (fun op d a -> Instr.Un (op, d, a)) unop reg operand;
        map3
          (fun d (a, b) c -> Instr.Tern (Instr.Mad, d, a, b, c))
          reg (pair operand operand) operand;
        map3
          (fun p (a, b) cmp -> Instr.Setp (Instr.Scmp, cmp, p, a, b))
          (int_bound (npregs_diff - 1))
          (pair operand operand)
          (oneofl [ Instr.Eq; Instr.Ne; Instr.Lt; Instr.Ge ]);
        map3
          (fun d (a, b) p -> Instr.Selp (d, a, b, p))
          reg (pair operand operand)
          (int_bound (npregs_diff - 1));
      ]
  in
  map2 (fun g b -> Instr.mk ?guard:g b) guard body

let diff_kernel_gen =
  QCheck.Gen.(
    map
      (fun bodies ->
        (* touch every predicate so npregs is stable *)
        let prelude =
          [
            Instr.mk (Instr.Setp (Instr.Scmp, Instr.Ge, 0, Instr.Reg 0, Instr.Imm 0));
            Instr.mk (Instr.Setp (Instr.Scmp, Instr.Ge, 1, Instr.Reg 0, Instr.Imm 1));
            Instr.mk (Instr.Un (Instr.Mov, nregs_diff - 1, Instr.Imm 0));
          ]
        in
        Kernel.make ~name:"diff" ~nparams:2
          (Array.of_list (prelude @ bodies @ [ Instr.mk Instr.Exit ])))
      (list_size (int_range 5 40) diff_body_gen))

let qcheck_differential =
  QCheck.Test.make ~name:"SIMT emulator matches scalar interpreter"
    ~count:150
    (QCheck.make ~print:Printer.kernel_to_string diff_kernel_gen)
    (fun k ->
      let block_x = 8 in
      let params = [| 12345; 67 |] in
      let mem = Memory.create () in
      let base = Memory.alloc mem (4 * block_x * k.Kernel.nregs) in
      (* augment the kernel to dump every register to a distinct address *)
      let augmented =
        let addr_reg = k.Kernel.nregs in
        let stores =
          List.concat_map
            (fun r ->
              [
                Instr.mk
                  (Instr.Tern
                     ( Instr.Mad,
                       addr_reg,
                       Instr.Sreg (Instr.Tid Instr.X),
                       Instr.Imm 4,
                       Instr.Imm (base + (4 * block_x * r)) ));
                Instr.mk
                  (Instr.St (Instr.Global, Instr.Reg addr_reg, 0, Instr.Reg r));
              ])
            (List.init k.Kernel.nregs (fun r -> r))
        in
        let without_exit =
          List.filter
            (fun i -> not (Instr.is_exit i))
            (Array.to_list k.Kernel.insts)
        in
        Kernel.make ~name:"diff" ~nparams:2
          (Array.of_list (without_exit @ stores @ [ Instr.mk Instr.Exit ]))
      in
      let launch =
        Kernel.launch augmented ~grid:(Kernel.dim3 1)
          ~block:(Kernel.dim3 block_x) ~params
      in
      let config = { Interp.warp_size = 4; capture_operands = false } in
      ignore (Interp.run ~config mem launch);
      List.for_all
        (fun tid ->
          let expected = scalar_eval_kernel k ~params ~block_x ~tid in
          List.for_all
            (fun r ->
              Memory.load_u32 mem (base + (4 * block_x * r) + (4 * tid))
              = expected.(r))
            (List.init k.Kernel.nregs (fun r -> r)))
        (List.init block_x (fun t -> t)))

let () =
  Alcotest.run "darsie_emu"
    [
      ( "memory",
        [
          Alcotest.test_case "basics" `Quick test_memory_basics;
          Alcotest.test_case "alignment" `Quick test_memory_alignment;
          Alcotest.test_case "alloc" `Quick test_memory_alloc;
          Alcotest.test_case "growth" `Quick test_memory_growth;
        ] );
      ( "simt-stack",
        [
          Alcotest.test_case "uniform" `Quick test_stack_uniform;
          Alcotest.test_case "divergence" `Quick test_stack_divergence;
          Alcotest.test_case "retire" `Quick test_stack_retire;
          Alcotest.test_case "bad diverge" `Quick test_stack_bad_diverge;
        ] );
      ( "straight-line",
        [
          Alcotest.test_case "axpb" `Quick test_exec_saxpy_like;
          Alcotest.test_case "float" `Quick test_exec_float;
          Alcotest.test_case "special registers" `Quick test_exec_special_registers;
          Alcotest.test_case "2d tids" `Quick test_exec_2d_tids;
        ] );
      ( "control-flow",
        [
          Alcotest.test_case "divergence" `Quick test_exec_divergence;
          Alcotest.test_case "loop" `Quick test_exec_loop;
          Alcotest.test_case "nested divergence" `Quick test_exec_nested_divergence;
          Alcotest.test_case "predicated store" `Quick test_exec_predicated_store;
        ] );
      ( "shared-and-barriers",
        [
          Alcotest.test_case "reverse" `Quick test_exec_shared_reverse;
          Alcotest.test_case "barrier under divergence" `Quick
            test_exec_barrier_under_divergence_faults;
          Alcotest.test_case "shared bounds" `Quick
            test_exec_shared_out_of_bounds_faults;
          Alcotest.test_case "shared fault texts" `Quick
            test_exec_shared_fault_texts;
        ] );
      ( "atomics",
        [
          Alcotest.test_case "add" `Quick test_exec_atomic_add;
          Alcotest.test_case "max" `Quick test_exec_atomic_max;
        ] );
      ( "tracing",
        [
          Alcotest.test_case "callback" `Quick test_trace_callback;
          Alcotest.test_case "partial warp" `Quick test_partial_last_warp;
          Alcotest.test_case "operands before the write" `Quick
            test_operands_before_write;
          Alcotest.test_case "cas compare operand" `Quick
            test_operands_cas_compare;
          Alcotest.test_case "allocation bound" `Quick test_step_allocation;
        ] );
      ("differential", [ QCheck_alcotest.to_alcotest qcheck_differential ]);
    ]
