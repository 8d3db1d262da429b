(** The fidelity sensitivity sweep ([darsie experiment sensitivity]).

    Runs the DARSIE-vs-BASE comparison at every swept machine point —
    the cross product of fetch-bundle widths ([Config.issue_width]) and
    per-warp MSHR limits ([Config.mshrs]), with bank-conflict replay on
    ([Config.smem_banks]) — and reports how the elimination speedup
    responds to frontend width and memory-level parallelism. Both
    machines in a cell run at the same knob setting, so each speedup
    isolates the DARSIE mechanism at that design point. *)

(** One app's DARSIE-vs-BASE comparison inside a cell. *)
type speedup = {
  abbr : string;
  base_cycles : int;
  darsie_cycles : int;
  speedup : float;  (** [base_cycles /. darsie_cycles] *)
}

(** One swept machine point. *)
type cell = {
  issue_width : int;
  mshrs : int;
  speedups : speedup list;  (** in [t.apps] order *)
  geomean : float;
}

type t = {
  scale : int;
  smem_banks : int;  (** fixed across the sweep *)
  apps : string list;  (** paper order *)
  cells : cell list;  (** issue_widths-major, mshr_limits-minor *)
}

val run :
  ?cfg:Darsie_timing.Config.t ->
  ?scale:int ->
  ?apps:Darsie_workloads.Workload.t list ->
  ?jobs:int ->
  ?cache:Darsie_trace.Cache.t ->
  ?check:(string -> Suite.run -> unit) ->
  ?issue_widths:int list ->
  ?mshr_limits:int list ->
  ?smem_banks:int ->
  unit ->
  t
(** Run the sweep. Defaults: every registry app at scale 1,
    [issue_widths = [1; 2]], [mshr_limits = [1; 64]]
    (the workloads' per-warp memory-level parallelism is naturally low
    — mostly dependent access chains — so only the single-MSHR point
    binds, and 64 never does),
    [smem_banks = 32], serial. Apps are loaded (and traces generated or
    cache-fetched) once; every cell replays the same traces. [jobs]
    fans both loading and the cell runs over domains; results are
    committed in input order, so the sweep is byte-identical for any
    job count.

    @raise Darsie_check.Sim_error.Simulation_error on a failing run. *)

val render : t -> string
(** Text table: one row per app plus GMEAN, one column per cell. *)

val to_json : t -> Darsie_obs.Json.t
(** The versioned [sensitivity_sweep] document;
    {!Metrics.validate} re-derives every number in it. *)
