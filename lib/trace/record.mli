(** Dynamic execution traces for the timing model.

    The timing simulator is trace-driven (like Accel-Sim): the functional
    emulator resolves control flow and memory addresses per warp, and the
    timing model replays each warp's instruction stream. One op is one
    dynamic warp-level instruction, named by its position in its warp's
    trace.

    A warp's trace is two flat byte buffers. [ops] holds one 16-byte row
    per op, four little-endian u32: the offset of the op's first address,
    the static instruction index, the occurrence number and the active
    mask; one sentinel offset (4 bytes) follows the last row. [addrs]
    holds one little-endian u32 per address, so a trace costs 16 B per op
    plus 4 B per address, and the accessors below allocate nothing. Every
    field is unsigned 32-bit, which is why warps wider than 32 lanes are
    rejected. *)

type warp = { ops : Bytes.t; addrs : Bytes.t }
(** One warp's trace; a plain record, so structural [=] compares
    contents. *)

type t = {
  launch : Darsie_isa.Kernel.launch;
  warp_size : int;
  tbs : warp array array;  (** [tb].[warp] *)
  emu_stats : Darsie_emu.Interp.stats;
}

val length : warp -> int
(** Number of ops in the warp's trace. *)

val idx : warp -> int -> int
(** [idx w i]: static instruction index of op [i]. *)

val occ : warp -> int -> int
(** Occurrence number of op [i]'s PC within this warp. *)

val active : warp -> int -> int
(** SIMT active mask of op [i] at issue. *)

val naddrs : warp -> int -> int
(** Number of byte addresses op [i] touched (active lanes of a memory
    op, in lane order; 0 for other ops). *)

val addr : warp -> int -> int -> int
(** [addr w i k]: the [k]-th byte address of op [i], [0 <= k < naddrs w i]. *)

val well_formed : ninsts:int -> warp -> bool
(** The layout invariants a loaded buffer must meet before the timing
    model may read it: whole rows plus the sentinel, address offsets that
    start at 0, never fall and end at the address count, and every
    instruction index below [ninsts]. *)

val warp_of_ops : (int * int * int * int array) array -> warp
(** Pack [(idx, occ, active, addresses)] ops into one warp's trace, as
    {!generate} does; raises [Invalid_argument] on a field outside
    [\[0, 2^32)]. *)

val generate :
  ?warp_size:int -> Darsie_emu.Memory.t -> Darsie_isa.Kernel.launch -> t
(** Functionally execute the launch (mutating [mem]) and collect per-warp
    traces. Raises [Invalid_argument] when [warp_size] exceeds 32 or an
    address falls outside [\[0, 2^32)]. *)

val total_ops : t -> int

val num_tbs : t -> int

val warps_per_tb : t -> int

val full_mask : t -> int
