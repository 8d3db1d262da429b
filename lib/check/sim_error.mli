(** The typed simulation-error channel.

    Every way a simulation can fail — timing-model deadlock, cycle-bound
    overrun, wall-clock budget overrun, emulator memory fault, violated
    model invariant, differential-oracle mismatch — is one constructor
    here, carried as [result] values through {!Darsie_timing.Gpu.run} and
    the harness instead of ad-hoc [failwith]s. Each error maps to a
    distinct nonzero process exit code so scripts and CI can tell the
    failure classes apart, and the heavyweight cases carry a structured
    {!diagnostic} dump (per-warp state, stall attribution, engine
    counters) gathered at the point of failure. *)

(** One warp's state at the moment of failure. *)
type warp_snapshot = {
  ws_sm : int;  (** SM index; [-1] for emulator-level errors *)
  ws_warp : int;  (** SM-local warp slot, or warp-in-TB for emu errors *)
  ws_tb : int;  (** global threadblock id; [-1] if unknown *)
  ws_pc : int;  (** static instruction index about to run; [-1] if done *)
  ws_state : string;  (** e.g. ["at_barrier"], ["runnable"], ["finished"] *)
  ws_detail : string;  (** free-form: trace position, I-buffer depth... *)
}

type diagnostic = {
  d_cycle : int;  (** simulated cycle (or warp instruction count) at failure *)
  d_engine : string;  (** elimination engine, [""] for emulator errors *)
  d_warps : warp_snapshot list;
  d_attribution : (string * int) list;  (** stall buckets summed over SMs *)
  d_notes : (string * int) list;  (** engine-specific counters *)
}

val empty_diagnostic : diagnostic

type t =
  | Deadlock of { message : string; diag : diagnostic }
      (** watchdog fired, or the emulator found a barrier deadlock *)
  | Cycle_bound of { bound : int; message : string; diag : diagnostic }
      (** simulation exceeded its cycle (or instruction) budget *)
  | Wall_timeout of { budget_s : float; cycle : int; message : string }
  | Memory_fault of { message : string }
      (** emulator-level execution fault (OOB access, bad PC) *)
  | Invariant_violation of { message : string }
      (** a model invariant failed (attribution sum, schema, skip table) *)
  | Oracle_mismatch of {
      app : string;
      machine : string;
      mismatches : int;
      message : string;
    }  (** the differential oracle found state divergence *)

exception Simulation_error of t

val of_emu : Darsie_emu.Interp.error -> t
(** Lift a structured emulator error (barrier deadlock with parked-warp
    list, runaway, lane fault) into the unified channel. *)

val kind_name : t -> string
(** Stable lowercase-snake kind tag, used in JSON and tests. *)

val summary : t -> string
(** One human-readable line (no newlines): kind plus first message line. *)

val exit_code : t -> int
(** Distinct nonzero process exit code per constructor:
    invariant violation 2, deadlock 3, cycle bound 4, wall timeout 5,
    memory fault 6, oracle mismatch 7. *)

val message : t -> string

val diagnostic : t -> diagnostic option

val pp : Format.formatter -> t -> unit
(** Multi-line report including the diagnostic dump when present. *)

val to_json : t -> Darsie_obs.Json.t
