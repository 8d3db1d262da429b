open Darsie_isa

type config = { warp_size : int; capture_operands : bool }

let default_config = { warp_size = 32; capture_operands = false }

type exec_record = {
  tb : int;
  warp : int;
  inst_index : int;
  occ : int;
  active : int;
  operands : Value.t array array;
  dst_values : Value.t array option;
  addrs : int array;
  naddrs : int;
}

type stats = { warp_insts : int; thread_insts : int; max_stack_depth : int }

type site = {
  site_tb : int;
  site_warp : int;
  site_inst : int;
  site_occ : int;
  site_active : int;
}

type action = Execute | Skip_instruction | Force_dst of Value.t array

type park_state = Running | At_barrier | Exited

type warp_park = {
  park_warp : int;
  park_pc : int;
  park_state : park_state;
  park_barrier_pc : int;
}

type error =
  | Barrier_deadlock of { tb : int; warps : warp_park list }
  | No_progress of { tb : int; warps : warp_park list }
  | Runaway of { executed : int; bound : int }
  | Exec_fault of string

exception Fault of string

exception Error of error

let fault fmt = Printf.ksprintf (fun m -> raise (Fault m)) fmt

let park_line p =
  match p.park_state with
  | Exited -> Printf.sprintf "warp %d: exited" p.park_warp
  | At_barrier ->
    Printf.sprintf "warp %d: parked at barrier (inst %d), resume pc %d"
      p.park_warp p.park_barrier_pc p.park_pc
  | Running -> Printf.sprintf "warp %d: runnable at pc %d" p.park_warp p.park_pc

let error_message = function
  | Barrier_deadlock { tb; warps } ->
    Printf.sprintf "barrier deadlock in threadblock %d:\n  %s" tb
      (String.concat "\n  " (List.map park_line warps))
  | No_progress { tb; warps } ->
    Printf.sprintf "scheduler made no progress in threadblock %d:\n  %s" tb
      (String.concat "\n  " (List.map park_line warps))
  | Runaway { executed; bound } ->
    Printf.sprintf "runaway kernel: executed %d warp instructions (bound %d)"
      executed bound
  | Exec_fault m -> m

(* Set bits of a lane mask (at most 62 bits wide), in constant time. *)
let popcount m =
  let m = m - ((m lsr 1) land 0x1555_5555_5555_5555) in
  let m = (m land 0x3333_3333_3333_3333) + ((m lsr 2) land 0x3333_3333_3333_3333) in
  let m = (m + (m lsr 4)) land 0x0F0F_0F0F_0F0F_0F0F in
  (m * 0x0101_0101_0101_0101) lsr 56

(* Per-warp architectural state. *)
type warp_state = {
  regs : Value.t array array;  (* [reg].[lane] *)
  preds : bool array array;
  stack : Simt_stack.t;
  occs : int array;  (* per instruction index *)
  tid_x : int array;
  tid_y : int array;
  tid_z : int array;
  valid_mask : int;  (* lanes backed by real threads *)
  mutable at_barrier : bool;
  mutable exited : bool;
  mutable last_barrier_pc : int;  (* last barrier executed; -1 if none *)
}

type tb_ctx = {
  launch : Kernel.launch;
  tb_index : int;
  ctaid : int * int * int;
  shared : Bytes.t;
  warps : warp_state array;
}

let shared_fault what addr =
  fault "shared %s out of bounds or misaligned: 0x%x" what addr

(* Inlined into the lane loops, with the fault kept out of line. *)
let[@inline] shared_load ctx addr =
  if addr < 0 || addr + 4 > Bytes.length ctx.shared || addr land 3 <> 0 then
    shared_fault "load" addr;
  Int32.to_int (Bytes.get_int32_le ctx.shared addr) land 0xFFFF_FFFF

let[@inline] shared_store ctx addr v =
  if addr < 0 || addr + 4 > Bytes.length ctx.shared || addr land 3 <> 0 then
    shared_fault "store" addr;
  Bytes.set_int32_le ctx.shared addr (Int32.of_int v)

let dim_axis (d : Kernel.dim3) (a : Instr.axis) =
  match a with Instr.X -> d.Kernel.x | Instr.Y -> d.Kernel.y | Instr.Z -> d.Kernel.z

let eval_binop (op : Instr.binop) a b =
  match op with
  | Instr.Add -> Value.add a b
  | Instr.Sub -> Value.sub a b
  | Instr.Mul -> Value.mul a b
  | Instr.Mulhi -> Value.mulhi_s a b
  | Instr.Div_s -> Value.div_s a b
  | Instr.Div_u -> Value.div_u a b
  | Instr.Rem_s -> Value.rem_s a b
  | Instr.Rem_u -> Value.rem_u a b
  | Instr.Min_s -> Value.min_s a b
  | Instr.Max_s -> Value.max_s a b
  | Instr.Min_u -> Value.min_u a b
  | Instr.Max_u -> Value.max_u a b
  | Instr.And -> Value.logand a b
  | Instr.Or -> Value.logor a b
  | Instr.Xor -> Value.logxor a b
  | Instr.Shl -> Value.shl a b
  | Instr.Shr_u -> Value.shr_u a b
  | Instr.Shr_s -> Value.shr_s a b
  | Instr.Fadd -> Value.fadd a b
  | Instr.Fsub -> Value.fsub a b
  | Instr.Fmul -> Value.fmul a b
  | Instr.Fdiv -> Value.fdiv a b
  | Instr.Fmin -> Value.fmin a b
  | Instr.Fmax -> Value.fmax a b

let eval_unop (op : Instr.unop) a =
  match op with
  | Instr.Mov -> a
  | Instr.Not -> Value.lognot a
  | Instr.Neg -> Value.neg a
  | Instr.Abs_s -> Value.abs_s a
  | Instr.Fneg -> Value.fneg a
  | Instr.Fabs -> Value.fabs a
  | Instr.Fsqrt -> Value.fsqrt a
  | Instr.Frcp -> Value.frcp a
  | Instr.Fexp2 -> Value.fexp2 a
  | Instr.Flog2 -> Value.flog2 a
  | Instr.Fsin -> Value.fsin a
  | Instr.Fcos -> Value.fcos a
  | Instr.Cvt_i2f -> Value.cvt_i2f a
  | Instr.Cvt_u2f -> Value.cvt_u2f a
  | Instr.Cvt_f2i -> Value.cvt_f2i a

let cmp_holds (cmp : Instr.cmp) c =
  match cmp with
  | Instr.Eq -> c = 0
  | Instr.Ne -> c <> 0
  | Instr.Lt -> c < 0
  | Instr.Le -> c <= 0
  | Instr.Gt -> c > 0
  | Instr.Ge -> c >= 0

let eval_cmp (kind : Instr.cmp_kind) (cmp : Instr.cmp) a b =
  match kind with
  | Instr.Scmp -> cmp_holds cmp (Value.cmp_s a b)
  | Instr.Ucmp -> cmp_holds cmp (Value.cmp_u a b)
  | Instr.Fcmp -> (
    match Value.cmp_f a b with
    | None -> cmp = Instr.Ne
    | Some c -> cmp_holds cmp c)

let eval_atom (op : Instr.atom_op) old v cas_cmp =
  match op with
  | Instr.Atom_add -> Value.add old v
  | Instr.Atom_max -> Value.max_s old v
  | Instr.Atom_min -> Value.min_s old v
  | Instr.Atom_exch -> v
  | Instr.Atom_cas -> if old = cas_cmp then v else old

let run ?(config = default_config) ?on_exec ?(max_warp_insts = 50_000_000)
    ?(strict_barriers = false) ?intercept (mem : Memory.t)
    (launch : Kernel.launch) =
  let kernel = launch.Kernel.kernel in
  let insts = kernel.Kernel.insts in
  let ninsts = Array.length insts in
  let ws_size = config.warp_size in
  if ws_size < 1 || ws_size > 62 then
    invalid_arg "Interp.run: warp size must be within 1..62";
  let cfg = Darsie_compiler.Cfg.build kernel in
  let postdom = Darsie_compiler.Postdom.compute cfg in
  let reconv = Array.init ninsts (fun i ->
      if Instr.is_branch insts.(i) then
        match Darsie_compiler.Postdom.reconvergence_inst postdom i with
        | Some r -> r
        | None -> -1
      else -1)
  in
  let nwarps = Kernel.warps_per_block launch ~warp_size:ws_size in
  let total_warp_insts = ref 0 and total_thread_insts = ref 0 in
  let max_depth = ref 1 in
  let init_warp w =
    let tid_x = Array.make ws_size 0
    and tid_y = Array.make ws_size 0
    and tid_z = Array.make ws_size 0 in
    let valid = ref 0 in
    for lane = 0 to ws_size - 1 do
      match Kernel.thread_of_lane launch ~warp_size:ws_size ~warp:w ~lane with
      | Some (x, y, z) ->
        tid_x.(lane) <- x;
        tid_y.(lane) <- y;
        tid_z.(lane) <- z;
        valid := !valid lor (1 lsl lane)
      | None -> ()
    done;
    {
      regs = Array.init (max kernel.Kernel.nregs 1) (fun _ -> Array.make ws_size Value.zero);
      preds =
        Array.init (max kernel.Kernel.npregs 1) (fun _ -> Array.make ws_size false);
      stack = Simt_stack.create ~full_mask:!valid;
      occs = Array.make ninsts 0;
      tid_x;
      tid_y;
      tid_z;
      valid_mask = !valid;
      at_barrier = false;
      exited = false;
      last_barrier_pc = -1;
    }
  in
  let parks ctx =
    Array.to_list
      (Array.mapi
         (fun w (ws : warp_state) ->
           {
             park_warp = w;
             park_pc =
               (if ws.exited || Simt_stack.finished ws.stack then -1
                else Simt_stack.pc ws.stack);
             park_state =
               (if ws.exited then Exited
                else if ws.at_barrier then At_barrier
                else Running);
             park_barrier_pc = ws.last_barrier_pc;
           })
         ctx.warps)
  in
  (* Per-run scratch the step reuses, so executing an instruction
     allocates nothing: one lane row per source slot for operands that
     are the same in every lane (immediates, parameters, block and grid
     special registers) with the value it holds, and the lane addresses
     of the memory instruction being executed. *)
  let const_rows = Array.init 3 (fun _ -> Array.make ws_size Value.zero) in
  let const_vals = Array.make 3 Value.zero in
  let addrs = Array.make ws_size 0 in
  let all_lanes = (1 lsl ws_size) - 1 in
  let capture = config.capture_operands && Option.is_some on_exec in
  let uniform k v =
    if const_vals.(k) <> v then begin
      Array.fill const_rows.(k) 0 ws_size v;
      const_vals.(k) <- v
    end;
    const_rows.(k)
  in
  let bd = launch.Kernel.block_dim and gd = launch.Kernel.grid_dim in
  (* Source operand [op] of slot [k] as a lane row: the register itself,
     the warp's thread-index row, or slot [k]'s constant row. A row may
     be the destination register, so a lane loop reads each lane's
     sources before writing that lane. *)
  let row ctx ws k (op : Instr.operand) =
    match op with
    | Instr.Reg r -> ws.regs.(r)
    | Instr.Imm v -> uniform k v
    | Instr.Param i -> uniform k launch.Kernel.params.(i)
    | Instr.Sreg (Instr.Tid Instr.X) -> ws.tid_x
    | Instr.Sreg (Instr.Tid Instr.Y) -> ws.tid_y
    | Instr.Sreg (Instr.Tid Instr.Z) -> ws.tid_z
    | Instr.Sreg (Instr.Ntid a) -> uniform k (Value.of_signed (dim_axis bd a))
    | Instr.Sreg (Instr.Nctaid a) -> uniform k (Value.of_signed (dim_axis gd a))
    | Instr.Sreg (Instr.Ctaid a) ->
      let bx, by, bz = ctx.ctaid in
      uniform k
        (Value.of_signed
           (match a with Instr.X -> bx | Instr.Y -> by | Instr.Z -> bz))
  in
  let run_tb tb_index =
    let ctx =
      {
        launch;
        tb_index;
        ctaid = Kernel.block_of_index launch tb_index;
        shared = Bytes.make kernel.Kernel.shared_bytes '\000';
        warps = Array.init nwarps init_warp;
      }
    in
    (* Execute one instruction for warp [w]; returns [false] when the warp
       can make no further progress this quantum (barrier or exit). *)
    let step w =
      let ws = ctx.warps.(w) in
      Simt_stack.reconverge_if_needed ws.stack;
      if Simt_stack.finished ws.stack then begin
        ws.exited <- true;
        false
      end
      else begin
        let pc = Simt_stack.pc ws.stack in
        if pc < 0 || pc >= ninsts then
          fault "warp %d fell off the program at index %d" w pc;
        let inst = insts.(pc) in
        let mask = Simt_stack.active_mask ws.stack in
        let occ = ws.occs.(pc) in
        let act =
          match intercept with
          | None -> Execute
          | Some f -> (
            match inst.Instr.body with
            | Instr.Bra _ | Instr.Bar | Instr.Exit -> Execute
            | _ ->
              f
                {
                  site_tb = tb_index;
                  site_warp = w;
                  site_inst = pc;
                  site_occ = occ;
                  site_active = mask;
                })
        in
        match act with
        | Skip_instruction ->
          (* The elided occurrence still consumes its occurrence number
             and advances the stream, like a (faulty) pre-fetch skip. *)
          ws.occs.(pc) <- occ + 1;
          Simt_stack.advance ws.stack (pc + 1);
          true
        | Execute | Force_dst _ ->
        ws.occs.(pc) <- occ + 1;
        incr total_warp_insts;
        total_thread_insts := !total_thread_insts + popcount mask;
        if !total_warp_insts > max_warp_insts then
          raise
            (Error (Runaway { executed = !total_warp_insts; bound = max_warp_insts }));
        let d = Simt_stack.depth ws.stack in
        if d > !max_depth then max_depth := d;
        (* Predication: lanes where the guard holds. *)
        let guard_mask =
          match inst.Instr.guard with
          | None -> mask
          | Some (sense, p) ->
            let pr = ws.preds.(p) in
            let m = ref 0 in
            for lane = 0 to ws_size - 1 do
              if mask land (1 lsl lane) <> 0 && pr.(lane) = sense then
                m := !m lor (1 lsl lane)
            done;
            !m
        in
        (* Captured before the body runs: the values the instruction
           reads, not what it leaves behind. *)
        let operands =
          if capture then
            Array.of_list
              (List.mapi
                 (fun k op -> Array.copy (row ctx ws k op))
                 (Instr.operands inst))
          else [||]
        in
        (* When every lane executes, the lane loops skip the mask test. *)
        let all_on = guard_mask = all_lanes in
        let naddrs = ref 0 in
        let continue_ = ref true in
        (match inst.Instr.body with
        | Instr.Bin (op, d, a, b) ->
          let a = row ctx ws 0 a and b = row ctx ws 1 b and dst = ws.regs.(d) in
          for lane = 0 to ws_size - 1 do
            if all_on || guard_mask land (1 lsl lane) <> 0 then
              dst.(lane) <- eval_binop op a.(lane) b.(lane)
          done;
          Simt_stack.advance ws.stack (pc + 1)
        | Instr.Un (op, d, a) ->
          let a = row ctx ws 0 a and dst = ws.regs.(d) in
          for lane = 0 to ws_size - 1 do
            if all_on || guard_mask land (1 lsl lane) <> 0 then
              dst.(lane) <- eval_unop op a.(lane)
          done;
          Simt_stack.advance ws.stack (pc + 1)
        | Instr.Tern (op, d, a, b, c) ->
          let a = row ctx ws 0 a and b = row ctx ws 1 b and c = row ctx ws 2 c in
          let dst = ws.regs.(d) in
          for lane = 0 to ws_size - 1 do
            if all_on || guard_mask land (1 lsl lane) <> 0 then
              dst.(lane) <-
                (match op with
                | Instr.Mad -> Value.add (Value.mul a.(lane) b.(lane)) c.(lane)
                | Instr.Fma -> Value.ffma a.(lane) b.(lane) c.(lane))
          done;
          Simt_stack.advance ws.stack (pc + 1)
        | Instr.Setp (kind, cmp, p, a, b) ->
          let a = row ctx ws 0 a and b = row ctx ws 1 b and dst = ws.preds.(p) in
          for lane = 0 to ws_size - 1 do
            if all_on || guard_mask land (1 lsl lane) <> 0 then
              dst.(lane) <- eval_cmp kind cmp a.(lane) b.(lane)
          done;
          Simt_stack.advance ws.stack (pc + 1)
        | Instr.Selp (d, a, b, p) ->
          let a = row ctx ws 0 a and b = row ctx ws 1 b and sel = ws.preds.(p) in
          let dst = ws.regs.(d) in
          for lane = 0 to ws_size - 1 do
            if all_on || guard_mask land (1 lsl lane) <> 0 then
              dst.(lane) <- (if sel.(lane) then a.(lane) else b.(lane))
          done;
          Simt_stack.advance ws.stack (pc + 1)
        | Instr.Ld (space, d, base, off) ->
          let base = row ctx ws 0 base and dst = ws.regs.(d) in
          let off = Value.of_signed off in
          for lane = 0 to ws_size - 1 do
            if all_on || guard_mask land (1 lsl lane) <> 0 then begin
              (* [Value.add] written out: a call into another library is
                 never inlined, and this one would run per lane. *)
              let addr = (base.(lane) + off) land 0xFFFF_FFFF in
              addrs.(!naddrs) <- addr;
              incr naddrs;
              dst.(lane) <-
                (match space with
                | Instr.Global -> Memory.load_u32 mem addr
                | Instr.Shared -> shared_load ctx addr)
            end
          done;
          Simt_stack.advance ws.stack (pc + 1)
        | Instr.St (space, base, off, v) ->
          let base = row ctx ws 0 base and v = row ctx ws 1 v in
          let off = Value.of_signed off in
          for lane = 0 to ws_size - 1 do
            if all_on || guard_mask land (1 lsl lane) <> 0 then begin
              let addr = (base.(lane) + off) land 0xFFFF_FFFF in
              addrs.(!naddrs) <- addr;
              incr naddrs;
              match space with
              | Instr.Global -> Memory.store_u32 mem addr v.(lane)
              | Instr.Shared -> shared_store ctx addr v.(lane)
            end
          done;
          Simt_stack.advance ws.stack (pc + 1)
        | Instr.Atom (op, d, a, v) ->
          (* Lane by lane: each lane's read-modify-write sees the earlier
             lanes' updates, and the compare value of a CAS is the
             destination register before that lane overwrites it. *)
          let a = row ctx ws 0 a and v = row ctx ws 1 v and dst = ws.regs.(d) in
          for lane = 0 to ws_size - 1 do
            if all_on || guard_mask land (1 lsl lane) <> 0 then begin
              let addr = a.(lane) in
              addrs.(!naddrs) <- addr;
              incr naddrs;
              let old = Memory.load_u32 mem addr in
              Memory.store_u32 mem addr (eval_atom op old v.(lane) dst.(lane));
              dst.(lane) <- old
            end
          done;
          Simt_stack.advance ws.stack (pc + 1)
        | Instr.Bra target ->
          let taken = guard_mask in
          if taken = mask then Simt_stack.advance ws.stack target
          else if taken = 0 then Simt_stack.advance ws.stack (pc + 1)
          else
            Simt_stack.diverge ws.stack ~reconv:reconv.(pc) ~taken_pc:target
              ~taken_mask:taken ~fallthrough_pc:(pc + 1)
        | Instr.Bar ->
          if Simt_stack.depth ws.stack > 1 then
            fault "barrier executed under intra-warp divergence (pc %d)" pc;
          Simt_stack.advance ws.stack (pc + 1);
          ws.at_barrier <- true;
          ws.last_barrier_pc <- pc;
          continue_ := false
        | Instr.Exit ->
          Simt_stack.retire_lanes ws.stack guard_mask;
          if guard_mask <> mask then Simt_stack.advance ws.stack (pc + 1)
          else ();
          if Simt_stack.finished ws.stack then begin
            ws.exited <- true;
            continue_ := false
          end);
        (match on_exec with
        | None -> ()
        | Some f ->
          let dst_values =
            if capture then
              Option.map (fun d -> Array.copy ws.regs.(d)) (Instr.dst_reg inst)
            else None
          in
          f
            {
              tb = tb_index;
              warp = w;
              inst_index = pc;
              occ;
              active = mask;
              operands;
              dst_values;
              addrs;
              naddrs = !naddrs;
            });
        (* A Force_dst interception overwrites the destination after the
           observer saw the recomputed values, modelling a (possibly
           corrupted) HRE forward taking effect. *)
        (match act with
        | Force_dst v -> (
          match Instr.dst_reg inst with
          | Some d ->
            if Array.length v < ws_size then
              fault "Force_dst: %d values for %d lanes" (Array.length v)
                ws_size;
            for lane = 0 to ws_size - 1 do
              if guard_mask land (1 lsl lane) <> 0 then
                ws.regs.(d).(lane) <- v.(lane)
            done
          | None -> ())
        | Execute | Skip_instruction -> ());
        !continue_
      end
    in
    (* Round-robin: run each warp until it blocks, release barriers when
       every live warp has arrived. *)
    let all_done () = Array.for_all (fun w -> w.exited) ctx.warps in
    let iterations = ref 0 in
    while not (all_done ()) do
      incr iterations;
      if !iterations > max_warp_insts then
        raise (Error (No_progress { tb = tb_index; warps = parks ctx }));
      let ran = ref false in
      Array.iteri
        (fun w ws ->
          if not ws.exited && not ws.at_barrier then begin
            ran := true;
            while step w do
              ()
            done
          end)
        ctx.warps;
      (* Barrier release: every warp is either exited or waiting. *)
      if Array.for_all (fun w -> w.exited || w.at_barrier) ctx.warps then begin
        let any_waiting = Array.exists (fun w -> w.at_barrier) ctx.warps in
        if any_waiting then begin
          (* Releasing a barrier some warps will never reach is the
             CUDA-illegal pattern; strict mode reports who is parked
             where instead of letting the stragglers run past it. *)
          if strict_barriers && Array.exists (fun w -> w.exited) ctx.warps
          then
            raise (Error (Barrier_deadlock { tb = tb_index; warps = parks ctx }));
          Array.iter (fun w -> w.at_barrier <- false) ctx.warps
        end
        else if not (all_done ()) then
          raise (Error (Barrier_deadlock { tb = tb_index; warps = parks ctx }))
      end
      else if not !ran then
        raise (Error (No_progress { tb = tb_index; warps = parks ctx }))
    done
  in
  for tb = 0 to Kernel.num_blocks launch - 1 do
    run_tb tb
  done;
  {
    warp_insts = !total_warp_insts;
    thread_insts = !total_thread_insts;
    max_stack_depth = !max_depth;
  }

let run_result ?config ?on_exec ?max_warp_insts ?strict_barriers ?intercept mem
    launch =
  match run ?config ?on_exec ?max_warp_insts ?strict_barriers ?intercept mem launch with
  | stats -> Ok stats
  | exception Error e -> Stdlib.Error e
  | exception Fault m -> Stdlib.Error (Exec_fault m)
  | exception Invalid_argument m ->
    (* Illegal guest memory access (misaligned or out-of-range address,
       e.g. from an injected fault corrupting an address register) — an
       execution fault of the simulated program, not a harness error. *)
    Stdlib.Error (Exec_fault m)
