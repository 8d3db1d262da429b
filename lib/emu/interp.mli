(** Functional (architectural) emulator for PTX-lite kernels.

    Executes a kernel launch against a {!Memory} instance, resolving SIMT
    control flow with per-warp reconvergence stacks (immediate
    postdominator). Threadblocks run one after another; warps within a
    threadblock interleave round-robin between barriers — a legal
    interleaving of the CUDA memory model for the regular workloads the
    paper studies.

    Every executed warp-instruction can be observed through the [on_exec]
    callback; the trace library uses this to build timing traces and
    redundancy limit studies. *)

type config = {
  warp_size : int;
  capture_operands : bool;
      (** when true, [exec_record.operands] and [dst_values] are
          populated — required by the limit studies, off for plain timing
          traces *)
}

val default_config : config
(** Warp size 32, no operand capture. *)

type exec_record = {
  tb : int;  (** linear threadblock index in the grid *)
  warp : int;  (** warp index within the threadblock *)
  inst_index : int;
  occ : int;  (** how many times this warp has executed this PC before *)
  active : int;  (** SIMT active mask when the instruction issued *)
  operands : Darsie_isa.Value.t array array;
      (** per source operand in {!Darsie_isa.Instr.operands} order, per
          lane (length [warp_size]): the values before the instruction
          executed, so an operand that is also the destination (or a
          CAS's compare register) reads its old value; empty unless
          [capture_operands]. Fresh arrays the callback may keep. *)
  dst_values : Darsie_isa.Value.t array option;
      (** the destination vector register after the write; [None] when the
          instruction writes no vector register or capture is off. A fresh
          array the callback may keep. *)
  addrs : int array;
      (** a view: the first [naddrs] entries are the byte addresses of the
          lanes that executed a memory instruction, in lane order. The
          array is the emulator's scratch buffer, overwritten by the next
          memory instruction: the callback must copy what it keeps and
          never write to it. *)
  naddrs : int;  (** 0 for instructions that are not loads, stores or atomics *)
}

type stats = {
  warp_insts : int;  (** dynamic warp-level instructions executed *)
  thread_insts : int;  (** dynamic thread-level instructions *)
  max_stack_depth : int;
}

(** {1 Execution interception}

    The robustness layer ([darsie_check]) uses interception to model
    DARSIE value forwarding functionally and to inject faults: a site
    identifies one dynamic warp instruction before it executes, and the
    returned action either runs it normally, elides it entirely, or runs
    it and then overwrites its destination register with given per-lane
    values (as a corrupted HRE forward would). Control flow (branches,
    barriers, exit) is never intercepted. *)

type site = {
  site_tb : int;
  site_warp : int;
  site_inst : int;  (** static instruction index *)
  site_occ : int;  (** occurrence of that index in this warp, pre-execution *)
  site_active : int;  (** SIMT active mask *)
}

type action =
  | Execute
  | Skip_instruction
      (** advance past the instruction without executing it; it is not
          counted in {!stats} and [on_exec] does not see it, but its
          occurrence number is still consumed *)
  | Force_dst of Darsie_isa.Value.t array
      (** execute normally (so [on_exec] observes the recomputed values),
          then overwrite the destination register's guarded lanes with
          these values; ignored for instructions without a destination *)

(** {1 Errors} *)

type park_state = Running | At_barrier | Exited

type warp_park = {
  park_warp : int;
  park_pc : int;  (** current instruction index; [-1] once exited *)
  park_state : park_state;
  park_barrier_pc : int;  (** last barrier this warp executed; [-1] if none *)
}

(** Structured execution errors. [Exec_fault] wraps lane-level faults
    (out-of-bounds shared access, falling off the program, divergent
    barriers) that are raised as {!Fault} by [run]. *)
type error =
  | Barrier_deadlock of { tb : int; warps : warp_park list }
      (** warps are parked at a barrier that can never release — the
          per-warp list says who is parked at which barrier/PC and who
          already exited *)
  | No_progress of { tb : int; warps : warp_park list }
      (** the warp scheduler made no progress (internal invariant) *)
  | Runaway of { executed : int; bound : int }
      (** [max_warp_insts] exceeded *)
  | Exec_fault of string

exception Fault of string
(** Raised on lane-level execution errors: barrier under divergence,
    out-of-bounds shared access, falling off the program. *)

exception Error of error
(** Raised on scheduler-level errors: barrier deadlock, no progress,
    runaway execution. *)

val error_message : error -> string
(** One human-readable line per warp for the deadlock cases. *)

val run :
  ?config:config ->
  ?on_exec:(exec_record -> unit) ->
  ?max_warp_insts:int ->
  ?strict_barriers:bool ->
  ?intercept:(site -> action) ->
  Memory.t ->
  Darsie_isa.Kernel.launch ->
  stats
(** [max_warp_insts] (default 50M) bounds total dynamic warp instructions
    to catch runaway kernels. [strict_barriers] (default false) makes a
    barrier fail with {!Barrier_deadlock} when some warps of the
    threadblock already exited while others wait — the CUDA-illegal
    pattern the permissive default releases anyway.

    @raise Fault on lane-level execution errors.
    @raise Error on deadlock / no-progress / runaway. *)

val run_result :
  ?config:config ->
  ?on_exec:(exec_record -> unit) ->
  ?max_warp_insts:int ->
  ?strict_barriers:bool ->
  ?intercept:(site -> action) ->
  Memory.t ->
  Darsie_isa.Kernel.launch ->
  (stats, error) result
(** Like {!run} but returns every execution error as a typed [Error]
    value ({!Fault} messages arrive as [Exec_fault], as do illegal guest
    memory accesses that {!Memory} rejects with [Invalid_argument]). *)
