(** Memory-system timing: global-memory coalescing, a per-SM L1 cache, a
    shared DRAM channel and shared-memory bank-conflict accounting. *)

type scratch
(** Working storage for {!coalesce} and {!shared_conflicts}, so neither
    allocates. Each SM owns one; it must not be shared across domains. *)

val scratch : unit -> scratch

val coalesce :
  scratch -> line_bytes:int -> Darsie_trace.Record.warp -> int -> int
(** [coalesce s ~line_bytes w i] reads op [i]'s addresses in place and
    returns the number of unique cache lines they touch — the number of
    memory transactions after coalescing. Their base addresses, in first
    touch order, are [line s 0] .. [line s (n - 1)] until the next call
    on [s]. *)

val line : scratch -> int -> int

val shared_conflicts :
  scratch -> banks:int -> Darsie_trace.Record.warp -> int -> int
(** Extra serialization cycles from op [i]'s shared-memory bank
    conflicts: with word-interleaved banks, the maximum number of
    distinct words mapped to one bank, minus one. Lanes reading the same
    word broadcast for free. *)

(** Set-associative, write-through, no-write-allocate L1 with LRU
    replacement. *)
module L1 : sig
  type t

  val create : bytes:int -> assoc:int -> line:int -> t

  val access : t -> int -> bool
  (** [access t line_addr] — true on hit; allocates on miss. *)

  val probe : t -> int -> bool
  (** Hit test without state change. *)

  val flush : t -> unit
end

(** A single DRAM channel shared by all SMs: fixed service rate and fixed
    latency on top of queueing. *)
module Dram : sig
  type t

  val create : txn_cycles:int -> latency:int -> t

  val request : t -> now:int -> ntxns:int -> int
  (** Completion cycle for a burst of transactions issued at [now]. *)

  val busy_until : t -> int
end
