(** Memory-system timing: global-memory coalescing, a per-SM L1 cache, a
    shared DRAM channel and shared-memory bank-conflict accounting. *)

val coalesce : line_bytes:int -> int array -> int list
(** Unique cache-line base addresses touched by a warp's accesses, in first
    touch order — the number of memory transactions after coalescing. *)

val shared_conflicts : banks:int -> int array -> int
(** Extra serialization cycles from shared-memory bank conflicts: with
    word-interleaved banks, the maximum number of distinct words mapped to
    one bank, minus one. Lanes reading the same word broadcast for free. *)

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
