(** The evaluation suite: loads every Table-1 application, generates its
    trace once, and replays it through every machine configuration. All
    figure modules project their rows out of one {!matrix}.

    The matrix build fans out over OCaml domains (see {!Parallel}) and
    can reuse functional traces from a persistent content-addressed
    cache (see {!Darsie_trace.Cache}); both are off by default so plain
    library use stays serial and pure. *)

(** One loaded application: the workload, its functional trace, and the
    static kernel information the timing model needs. *)
type app = {
  workload : Darsie_workloads.Workload.t;
  trace : Darsie_trace.Record.t;
  kinfo : Darsie_timing.Kinfo.t;
}

val load_app :
  ?scale:int -> ?cache:Darsie_trace.Cache.t -> Darsie_workloads.Workload.t ->
  app
(** Prepare the workload at [scale] (default 1) and functionally emulate
    it into a replayable trace. With [cache], the emulation is skipped
    whenever the cache already holds a trace for this exact (kernel,
    launch, scale) content key — the trace is machine-invariant, so one
    generation serves every machine configuration and every repeat. *)

(** The machine configurations of the paper's evaluation. *)
type machine =
  | Base
  | Uv
  | Dac_ideal
  | Darsie
  | Darsie_ignore_store
  | Darsie_no_cf_sync
  | Silicon_sync
      (** baseline hardware with a TB-wide barrier at every basic-block
          boundary (paper Fig. 12's silicon experiment) *)

val machine_name : machine -> string
(** The paper's spelling: ["BASE"], ["UV"], ["DAC-IDEAL"], ["DARSIE"],
    ["DARSIE-IGNORE-STORE"], ["DARSIE-NO-CF-SYNC"], ["SILICON-SYNC"]. *)

val all_machines : machine list
(** Every configuration, in the order above — the full evaluation. *)

val setup :
  ?cfg:Darsie_timing.Config.t ->
  machine ->
  Darsie_timing.Config.t * Darsie_timing.Engine.factory
(** The timing configuration and engine a machine runs with: [cfg]
    (default {!Darsie_timing.Config.default}) with the machine's
    adjustments (SILICON-SYNC forces [sync_at_branches]), and its
    elimination engine. *)

(** One matrix cell: a timing-model run plus its energy accounting. *)
type run = {
  machine : machine;
  cfg : Darsie_timing.Config.t;
      (** the exact configuration the cell ran under (machine variants
          adjust the caller's base config, e.g. SILICON-SYNC forces
          [sync_at_branches]); echoed into the metrics document *)
  gpu : Darsie_timing.Gpu.result;
  energy : Darsie_energy.Energy_model.breakdown;
}

type matrix = {
  cfg : Darsie_timing.Config.t;
  apps : app list;  (** paper order: 1D then 2D *)
  runs : (string * machine, run) Hashtbl.t;  (** keyed by (abbr, machine) *)
}

val run_app_checked :
  ?cfg:Darsie_timing.Config.t ->
  ?sink:Darsie_obs.Sink.t ->
  ?sample_interval:int ->
  ?deadline:float ->
  ?pcstat:bool ->
  app ->
  machine ->
  (run, Darsie_check.Sim_error.t) result
(** Like {!run_app} but surfaces simulation failures as typed errors and
    forwards the diagnostic options of {!Darsie_timing.Gpu.run}
    (including [pcstat] per-instruction profiling). *)

val run_app :
  ?cfg:Darsie_timing.Config.t ->
  ?sink:Darsie_obs.Sink.t ->
  ?sample_interval:int ->
  ?pcstat:bool ->
  app ->
  machine ->
  run
(** [sink] and [sample_interval] are forwarded to
    {!Darsie_timing.Gpu.run}; both default to off (the null sink).

    @raise Darsie_check.Sim_error.Simulation_error on failure. *)

val divide_domains : jobs:int -> Darsie_timing.Config.t -> Darsie_timing.Config.t
(** Core-budget division between the process pool and intra-run SM
    sharding: with a pool of [jobs] workers on a machine with
    [P = Parallel.default_jobs ()] cores, cap [cfg.sm_domains] at
    [max 1 (P / jobs)] so the two levels multiplied never oversubscribe
    the cores. Auto-sizing ([sm_domains = 0]) resolves to exactly that
    share. [jobs <= 1] or a serial config ([sm_domains = 1]) passes
    through unchanged. Sharding is timing-invisible, so this only
    affects the schedule, never a simulated result. Applied by
    {!build_matrix}, {!Checker.check_suite} and the CLI's [-j] fan-outs. *)

val build_matrix :
  ?cfg:Darsie_timing.Config.t ->
  ?scale:int ->
  ?machines:machine list ->
  ?apps:Darsie_workloads.Workload.t list ->
  ?jobs:int ->
  ?cache:Darsie_trace.Cache.t ->
  unit ->
  matrix
(** Run the full (app × machine) evaluation. [jobs] fans the trace
    generations and the matrix cells out over that many domains
    (default 1 — serial; pass [Parallel.default_jobs ()] for all
    cores). The merged matrix is identical for every job count: results
    are committed in input order, so figures and metrics documents
    derived from it are byte-for-byte independent of the schedule.
    [cache] makes {!load_app} reuse persisted functional traces.

    @raise Darsie_check.Sim_error.Simulation_error on the first failing
    cell (in deterministic app-then-machine order; with [jobs > 1] the
    remaining cells still ran — the error is raised at merge time). *)

val get : matrix -> string -> machine -> run
(** @raise Not_found if that cell was not run. *)

val speedup : matrix -> string -> machine -> float
(** Cycles(BASE) / cycles(machine) for one app. *)

val energy_reduction : matrix -> string -> machine -> float
(** Percent energy saved vs BASE. *)

val instr_reduction : matrix -> string -> machine -> float
(** Percent of baseline-executed warp instructions eliminated (pre-fetch
    skips + issue drops). *)
