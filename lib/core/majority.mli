(** The majority-path bitmask (paper §4.3.3).

    One bit per warp of a threadblock indicates whether the warp is still
    on the TB-majority control-flow path and therefore eligible for
    instruction skipping. Bits are cleared when a warp deviates from the
    majority path (or encounters intra-warp SIMD divergence) and all set
    back on a [__syncthreads]. *)

type t

val create : warps:int -> t

val on_path : t -> int -> bool

val drop : t -> int -> unit

val mask : t -> int

val covers : t -> int -> bool
(** [covers t m] — does [m] include every warp currently on the majority
    path? *)

val reset : t -> unit
(** Set every warp back on the path (barrier semantics). *)
