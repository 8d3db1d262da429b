(** The PC skip table with multithreaded register versioning (paper
    §4.3.1–4.3.2).

    One table per resident threadblock. Each entry tracks a static PC that
    is currently being skipped; each live {e instance} of an entry is one
    dynamic execution (a loop iteration) of that PC, holding one renamed
    physical vector register from the per-TB freelist — the paper's
    register versioning. An instance records its leader warp, whether the
    leader has written the value back ([LeaderWB]) and which warps have
    passed it; the physical register returns to the freelist once every
    majority-path warp has passed.

    The table is bounded: at most [max_entries] distinct PCs (8 per TB in
    the paper) and [rename_regs] live instances (32 renamed registers per
    TB). When either is exhausted, arriving warps simply execute the
    instruction themselves. *)

(** Per-PC entry telemetry (allocations, follower hits, park cycles,
    flush causes, live lifetime). One [Telemetry.t] is shared by every
    table an engine creates so the counts survive TB retirement; the
    engine advances the logical clock once per cycle with {!set_now}. *)
module Telemetry : sig
  type t

  val create : pcs:int -> t
  (** Cells for the PCs [0 .. pcs - 1], the kernel's static instructions. *)

  val set_now : t -> int -> unit
  (** Set the logical clock (the SM cycle) used for lifetime accounting. *)

  val now : t -> int
  (** The logical clock as last set. *)

  val note_park : t -> pc:int -> unit
  (** A follower parked in this PC's warps-waiting bitmask this cycle. *)

  val note_parks : t -> pc:int -> n:int -> unit
  (** [n] park cycles at once — the bulk form used when a follower that
      slept through [n] skip phases wakes (see {!Darsie_engine}). *)

  val entries : t -> (int * Darsie_obs.Pcstat.skip_entry) list
  (** Snapshot of every PC counted so far, in ascending PC order. *)
end

type instance = {
  occ : int;
  leader : int;  (** warp (within the TB) that executes the instruction *)
  mutable leader_wb : bool;
  mutable done_mask : int;  (** warps that have passed this instance *)
  mem_dep : bool;
  born : int;  (** telemetry clock at allocation; 0 without telemetry *)
}

type t

val create : pcs:int -> max_entries:int -> rename_regs:int -> t
(** An empty table for a kernel of [pcs] static instructions: every [pc]
    argument below is an index in [0 .. pcs - 1]. *)

val attach_telemetry : t -> Telemetry.t -> unit
(** Attach a (possibly shared) telemetry block; without one, all
    telemetry accounting is off. Attach before the first {!allocate}. *)

val absent : instance
(** The instance {!lookup} returns when there is none; compare with [==]
    and never mutate it. *)

val lookup : t -> pc:int -> occ:int -> instance
(** The live instance for (pc, occurrence), or {!absent}; allocates
    nothing. *)

val find : t -> pc:int -> occ:int -> instance option
(** {!lookup} as an option. *)

val can_allocate : t -> pc:int -> bool
(** True when a new instance at [pc] could be created: the PC already has
    an entry or a table slot is free, and the freelist is non-empty. *)

val has_free_reg : t -> bool

val has_entry_slot : t -> pc:int -> bool

val allocate : t -> pc:int -> occ:int -> leader:int -> mem_dep:bool -> unit
(** Create an instance with the leader already marked in [done_mask].

    @raise Invalid_argument when [can_allocate] is false or the instance
    already exists. *)

val mark_writeback : t -> pc:int -> occ:int -> majority:int -> unit
(** Leader wrote the value back; sets [LeaderWB] and may free the instance
    when every majority warp has already passed. No-op if the instance is
    gone. *)

val mark_passed : t -> pc:int -> occ:int -> warp:int -> majority:int -> unit
(** A follower skipped the instance; frees it when [done_mask] covers the
    majority mask (and the leader has written back). *)

val recheck : t -> majority:int -> unit
(** Re-evaluate every instance's free condition after the majority mask
    shrank. *)

val flush_loads : t -> kind:[ `Store | `Atomic ] -> unit
(** Remove every memory-dependent entry — loads and instructions whose
    inputs transitively came from a load (a store or atomic was
    executed — §4.4; keeping a derived-value entry would hand follower
    warps pre-store data).
    Each flushed instance is remembered, keyed by (pc, occurrence) with
    [kind] and its leader, until {!consume_flush} or {!flush_all} — the
    skip ledger's provenance for [Flushed_store] / [Flushed_atomic]. *)

val consume_flush : t -> pc:int -> occ:int -> ([ `Store | `Atomic ] * int) option
(** Take (and forget) the flush record for (pc, occurrence): what flushed
    the instance and which warp led it. [None] when it was never
    flushed, or the record was already consumed. *)

val flush_all : t -> unit
(** Barrier / TB retirement: drop all state (including pending flush
    records), return all registers. *)

val live_entries : t -> int

val free_regs : t -> int

val live_instances : t -> int

val check_invariants : t -> (unit, string) result
(** Structural soundness: freelist within bounds, free + live instances
    equals the register budget, entry count within the table bound, one
    instance per (pc, occurrence), every leader present in its instance's
    [done_mask], and the live-entry index consistent with the entries.
    Nothing in the engine calls it; the tests check it after table
    operations. *)
