(** Skip ledger: exhaustive dynamic-fate accounting for statically
    redundant instructions.

    For every instruction the compiler marks DR or CR (statically
    eligible before launch-time promotion), every dynamic {e occurrence}
    — one (warp, trace position) passage through the fetch slot — is
    classified into exactly one {!fate}. The eligible occurrences are
    counted independently when a threadblock launches, so per PC, per SM
    and whole-run the fates must sum to the eligible count — the
    conservation invariant {!check} verifies and
    [Darsie_timing.Gpu.check_ledger] enforces, in the same
    buckets-sum-to-total style as stall attribution.

    The derived {e redundancy coverage} — captured (skipped or parked
    behind a leader's writeback) over eligible — is the headline number
    [darsie explain] and [darsie experiment coverage] track. *)

(** Where one eligible dynamic occurrence ended up. The taxonomy is a
    partition: every occurrence gets exactly one fate. *)
type fate =
  | Skipped  (** follower skipped the instruction pre-fetch *)
  | Leader_executed
      (** executed as the leader of a live skip-table instance (the one
          warp per instance the paper charges the execution to) *)
  | Parked_waiting_leaderwb
      (** skipped, but only after parking in the instance's warps-waiting
          bitmask for the leader's writeback; the park cycles themselves
          are stall attribution, the fate is charged once on resolution *)
  | Blocked_divergence
      (** executed because the warp had been dropped from the majority
          path by SIMD-mask divergence *)
  | Blocked_branch_sync
      (** executed because the warp was dropped at a branch
          synchronization (its successor disagreed with the majority) *)
  | Evicted_capacity
      (** executed because no skip-table instance existed and none could
          be allocated (8-entry PC table exhausted) *)
  | Freelist_stall
      (** executed after giving up on an empty rename-register freelist
          (32 renamed vregs per TB, bounded wait) *)
  | Flushed_store
      (** load entry: its instance was flushed by a store before this
          warp could skip (§4.4) *)
  | Flushed_atomic  (** load entry flushed by an atomic *)
  | Demoted_at_launch
      (** CR resolved to Vector because the launch failed the
          xdim/warp-size promotion test — machine-independent *)
  | Skip_disabled
      (** the plugged-in engine has no skip path (BASE, UV, DAC-IDEAL) *)

val all_fates : fate list

val nfates : int

val fate_name : fate -> string
(** Stable snake_case name used in JSON and CSV. *)

type t

val create : n:int -> t
(** A ledger over [n] static instructions, all counts zero. *)

val size : t -> int

val note_expected : t -> pc:int -> unit
(** One more eligible dynamic occurrence of [pc] entered the machine
    (counted at threadblock launch by scanning the installed traces). *)

val note : t -> pc:int -> fate -> unit
(** Record the fate of one occurrence of [pc]. *)

val get : t -> pc:int -> fate -> int

val expected : t -> pc:int -> int

val outcome_sum : t -> pc:int -> int
(** Sum of all fate counts at [pc]. *)

val add : t -> t -> unit
(** [add acc x] accumulates [x] into [acc] element-wise.

    @raise Invalid_argument on size mismatch. *)

val expected_total : t -> int

val fate_total : t -> fate -> int

val captured : t -> int
(** [Skipped] + [Parked_waiting_leaderwb]: occurrences DARSIE actually
    eliminated. *)

val coverage : t -> float
(** [captured / expected_total]; [1.0] when nothing was eligible. *)

val check : t -> (unit, string) result
(** The conservation invariant: for every PC, eligible occurrences equal
    the sum of recorded fates. *)

val totals_assoc : t -> (string * int) list
(** Per-fate totals in {!all_fates} order, keyed by {!fate_name}. *)

val to_json : t -> Json.t
(** The [skip_ledger] metrics section: totals, coverage and per-PC rows
    (docs/metrics-schema.md). *)
