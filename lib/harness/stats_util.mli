(** Numeric helpers and {!Darsie_timing.Stats} projections shared by the
    figure renderers and the machine-readable exporters. *)

val geomean : float list -> float
(** Geometric mean; non-positive inputs are clamped to [1e-4] (the paper
    reports geometric means of percentages that can be ~0 for UV). Empty
    input yields 1. *)

val mean : float list -> float

val percent : int -> int -> float
(** [percent part whole] = 100 * part/whole (0 when whole = 0). *)

val ratio : int -> int -> float
(** [part / whole] as a float (0 when whole = 0). *)

val to_assoc : Darsie_timing.Stats.t -> (string * int) list
(** {!Darsie_timing.Stats.to_assoc}, kept under this name for
    perfbench. *)

val sum : Darsie_timing.Stats.t list -> Darsie_timing.Stats.t
(** Merge with {!Darsie_timing.Stats.add} semantics (cycles take the
    max, everything else sums) into a fresh record. *)

val ipc : Darsie_timing.Stats.t -> float
(** Issued warp instructions per cycle. *)

val l1_miss_rate : Darsie_timing.Stats.t -> float

val fetch_skip_fraction : Darsie_timing.Stats.t -> float
(** Fraction of the front-end instruction stream eliminated before
    fetch: [skipped / (fetched + skipped)]. *)

val elimination_pct : Darsie_timing.Stats.t -> baseline_issued:int -> float
(** Percent of the baseline's issued instructions this run eliminated
    (pre-fetch skips + issue drops) — Figures 9/10's metric. *)

val derived : Darsie_timing.Stats.t -> (string * float) list
(** The derived-metric block of the JSON export. *)
