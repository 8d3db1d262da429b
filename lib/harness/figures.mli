(** One entry point per paper figure/table. Each returns structured rows
    (for tests) and a rendered text block (for [darsie experiment]).
    The experiment-to-module map lives in DESIGN.md §4; paper-vs-measured
    numbers are recorded in EXPERIMENTS.md. *)

(** {1 Figure 1 — redundancy by thread-grouping level (limit study)} *)

type fig1_row = {
  abbr : string;
  grid_pct : float;
  tb_pct : float;
  warp_pct : float;
  vector_pct : float;  (** not TB-redundant *)
}

val fig1 : ?scale:int -> unit -> fig1_row list * fig1_row * string
(** Per-app rows, the all-app average (the paper's Figure 1 bars), and the
    rendered table. *)

(** {1 Figure 2 — dynamic TB-redundancy taxonomy} *)

type fig2_row = {
  abbr : string;
  dim : string;
  uniform : float;  (** fractions of executed instructions *)
  affine : float;
  unstructured : float;
  non_redundant : float;
}

val fig2 : ?scale:int -> unit -> fig2_row list * string

(** {1 Figure 6 — compiler markings for the MM kernel} *)

val fig6 : unit -> string

(** {1 Figure 8 — speedup over the baseline GPU} *)

type fig8_row = {
  abbr : string;
  uv : float;
  dac : float;
  darsie : float;
  darsie_ignore_store : float;
}

val fig8 : Suite.matrix -> fig8_row list * fig8_row * fig8_row * string
(** Rows, GMEAN-1D, GMEAN-2D, rendered table. *)

(** {1 Figures 9 and 10 — instruction reduction by taxonomy class} *)

type reduction_row = {
  abbr : string;
  machine : string;
  uniform_pct : float;
  affine_pct : float;
  unstructured_pct : float;
  total_pct : float;
}

val fig9 : Suite.matrix -> reduction_row list * string
(** 1D benchmarks. *)

val fig10 : Suite.matrix -> reduction_row list * string
(** 2D benchmarks. *)

(** {1 Figure 11 — energy reduction} *)

type fig11_row = { abbr : string; uv : float; dac : float; darsie : float }

val fig11 : Suite.matrix -> fig11_row list * fig11_row * fig11_row * string

(** {1 Figure 12 — synchronization effects} *)

type fig12_row = {
  abbr : string;
  darsie : float;
  darsie_no_cf_sync : float;
  silicon_sync : float;  (** baseline+barriers slowdown, right axis *)
}

val fig12 : Suite.matrix -> fig12_row list * fig12_row * string

(** {1 Redundancy coverage} *)

type coverage_row = {
  abbr : string;
  eligible : int;
      (** dynamic occurrences of statically DR/CR instructions *)
  captured : int;  (** of those, skipped or parked by DARSIE *)
  coverage : float;  (** captured / eligible; 1.0 when nothing eligible *)
}

val coverage : Suite.matrix -> coverage_row list * float * string
(** Per-app skip-ledger redundancy coverage on the DARSIE machine plus
    the geometric mean — how much of the statically eliminable work the
    runtime actually eliminated ([darsie experiment coverage]). *)

(** {1 Tables} *)

val table1 : unit -> string
(** Applications studied. *)

val table2 : ?cfg:Darsie_timing.Config.t -> unit -> string
(** Baseline GPU configuration. *)

val table3 : unit -> string
(** Qualitative comparison with related work. *)

val area : ?cfg:Darsie_timing.Config.t -> unit -> Darsie_energy.Area.t * string
(** §6.3 area estimate. *)

val darsie_overhead : Suite.matrix -> float * string
(** DARSIE's added-structure energy as a percent of total (paper: 0.95%),
    averaged over apps. *)
