(** Crash-isolated robustness checking over the evaluation suite.

    [darsie check] drives this module: each application is loaded, run
    functionally, replayed through the timing model on a set of machines,
    cross-validated by the differential oracle and (optionally) attacked
    with injected faults — with every failure captured as a typed
    {!Darsie_check.Sim_error.t} instead of a crash, so one poisoned or
    deadlocking application degrades the suite result into a partial
    report rather than taking the process down. Per-application budgets
    (the timing model's cycle bound and an optional wall-clock deadline)
    bound how long any single application can hold the suite. *)

type timing_run = {
  machine : Suite.machine;
  outcome : (int, Darsie_check.Sim_error.t) result;  (** [Ok cycles] *)
}

type injection = {
  fault : Darsie_check.Injector.fault;
  detected : bool;  (** did the oracle catch it? *)
  mismatch_count : int;
}

type app_report = {
  abbr : string;
  errors : Darsie_check.Sim_error.t list;
      (** every failure captured for this app, in discovery order; empty
          means the app passed all requested checks *)
  timing : timing_run list;
  oracle : Darsie_check.Oracle.report option;
  injections : injection list;
  elapsed_s : float;  (** wall-clock seconds spent on this app *)
  replay : string;
      (** the exact [darsie check] command line that re-runs this app's
          checks in isolation (scale/oracle/injection flags and every
          non-default machine knob included);
          printed under every failing app so a suite failure is
          reproducible by copy-paste *)
}

type report = { apps : app_report list; elapsed_s : float }

val default_machines : Suite.machine list
(** BASE and DARSIE. *)

val app_passed : app_report -> bool

val passed : report -> bool

val worst_error : report -> Darsie_check.Sim_error.t option
(** The captured error with the highest exit code, for the process exit
    status. [None] iff {!passed}. *)

val check_app :
  ?cfg:Darsie_timing.Config.t ->
  ?scale:int ->
  ?machines:Suite.machine list ->
  ?oracle:bool ->
  ?inject:int ->
  ?seed:int ->
  ?deadline:float ->
  ?cache:Darsie_trace.Cache.t ->
  Darsie_workloads.Workload.t ->
  app_report
(** Check one application: functional run + CPU reference, timing runs on
    [machines] (default BASE and DARSIE, each held to
    {!Darsie_timing.Gpu.check_invariants}: attribution and skip ledger),
    differential oracle when [oracle] (default true), and [inject]
    (default 0) seeded faults that the oracle must detect. [deadline]
    bounds each timing run in wall-clock seconds. [cache] lets the timing
    runs reuse persisted functional traces (the functional verify and
    the oracle always re-emulate — they check the emulator itself).
    Never raises: all failures land in [errors]. *)

val check_suite :
  ?cfg:Darsie_timing.Config.t ->
  ?scale:int ->
  ?machines:Suite.machine list ->
  ?oracle:bool ->
  ?inject:int ->
  ?seed:int ->
  ?deadline:float ->
  ?cache:Darsie_trace.Cache.t ->
  ?jobs:int ->
  ?apps:Darsie_workloads.Workload.t list ->
  unit ->
  report
(** {!check_app} over [apps] (default the Table-1 registry), isolating
    each: an app that fails or crashes is reported and the remaining apps
    still run. [jobs] (default 1) checks that many apps concurrently on
    separate domains via {!Parallel}; the report lists apps in input
    order either way. Per-app [elapsed_s] and deadlines are wall-clock
    time since that app (or timing run) started, so work on other
    domains does not count against them. *)

val render : report -> string
(** Human-readable per-app lines plus a PASS/FAIL summary. *)

val to_json : report -> Darsie_obs.Json.t
(** Machine-readable [check_report] document (see {!Metrics.validate}). *)
