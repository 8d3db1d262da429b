(** Whole-GPU simulation: threadblock dispatch over multiple SMs sharing
    one DRAM channel. *)

type result = {
  cycles : int;
  stats : Stats.t;  (** aggregated over SMs (cycles = max) *)
  per_sm : Stats.t array;
  engine : string;
  tbs_per_sm : int;  (** resident threadblock occupancy used *)
  attribution : Darsie_obs.Attrib.t;
      (** stall attribution summed over SMs; totals [num_sms * cycles] *)
  per_sm_attribution : Darsie_obs.Attrib.t array;
      (** each sums exactly to [cycles] *)
  series : Darsie_obs.Series.t array;
      (** per-SM interval-sampled counters; [[||]] when sampling was off *)
  pcstat : Darsie_obs.Pcstat.t option;
      (** per-PC profile aggregated over SMs; [None] when profiling was
          off *)
  per_sm_pcstat : Darsie_obs.Pcstat.t array;
      (** [[||]] when profiling was off; each mirrors its SM's
          attribution bucket-by-bucket *)
  skip_telemetry : (int * Darsie_obs.Pcstat.skip_entry) list;
      (** per-PC skip-table entry telemetry merged over SMs; [[]] for
          engines without a skip table *)
  ledger : Darsie_obs.Ledger.t;
      (** skip ledger (dynamic fates of statically DR/CR instructions)
          summed over SMs; always on *)
  per_sm_ledger : Darsie_obs.Ledger.t array;
      (** each conserves eligible = Σ fates per PC on its own SM *)
}

val occupancy : Config.t -> Darsie_isa.Kernel.t -> warps_per_tb:int -> int
(** Resident threadblocks per SM given the warp, register, shared-memory
    and slot limits. *)

val run :
  ?cfg:Config.t ->
  ?sink:Darsie_obs.Sink.t ->
  ?sample_interval:int ->
  ?deadline:float ->
  ?pcstat:bool ->
  Engine.factory ->
  Kinfo.t ->
  Darsie_trace.Record.t ->
  (result, Darsie_check.Sim_error.t) Stdlib.result
(** Replay a recorded trace through the timing model with the given
    engine. Threadblocks are dispatched to SMs greedily in index order as
    slots free up. [sink] receives typed pipeline events (default: the
    null sink — tracing off); [sample_interval] turns on per-SM counter
    time-series with one point per that many cycles; [pcstat] (default
    false) turns on per-static-instruction profiling (the table behind
    [darsie annotate]).

    The SM array is split into [cfg.sm_domains] shards (1 runs one shard
    on the calling domain, 0 auto-sizes to the host); shard 0 runs on
    the calling domain and every other shard on a worker domain. Shards
    advance in epochs of at most [l1_lat + dram_lat] cycles, with DRAM
    requests, threadblock dispatch and events replayed in canonical
    per-cycle order at every epoch barrier. Within an epoch
    each SM follows its own wake-up calendar: with [cfg.fast_forward] on
    (the default), idle spans where an SM can make no observable
    progress — every warp waiting on a memory return, a barrier release
    or an I-cache fill — are skipped in one jump to its next wake-up
    ({!Sm.next_event_cycle}), bulk-charging the skipped cycles into the
    same stall-attribution buckets stepping would have filled; [false]
    wakes every SM at every cycle (the [--no-fast-forward] escape hatch).
    Results are bit-identical at every domain count with fast-forward on
    or off, and with any observability hook requested.

    Failures come back as typed {!Darsie_check.Sim_error.t} values
    carrying a diagnostic dump (per-warp state, stall attribution,
    engine counters):
    - [Cycle_bound] when the simulation exceeds [cfg.max_cycles];
    - [Deadlock] when, for [cfg.watchdog_cycles] consecutive cycles, no
      SM fetched, issued, dropped or skipped anything and nothing was
      between issue and writeback ([0] disables the watchdog);
    - [Wall_timeout] when [deadline] (wall-clock seconds since this run
      started) is exhausted; checked at epoch barriers. *)

val run_exn :
  ?cfg:Config.t ->
  ?sink:Darsie_obs.Sink.t ->
  ?sample_interval:int ->
  ?deadline:float ->
  ?pcstat:bool ->
  Engine.factory ->
  Kinfo.t ->
  Darsie_trace.Record.t ->
  result
(** {!run}, raising {!Darsie_check.Sim_error.Simulation_error} instead of
    returning [Error]. For call sites that treat failure as fatal. *)

val ipc : result -> float
(** Executed warp instructions (including eliminated ones' useful work is
    excluded) per cycle: [issued / cycles]. *)

val check_attribution : result -> (unit, string) Stdlib.result
(** Verify the per-SM stall-attribution invariant (every simulated cycle
    classified exactly once) and, when per-PC profiling was on, that each
    SM's per-PC stall charges sum to its bucket totals. The CLI turns an
    [Error] into a nonzero exit status so CI catches model drift. *)

val check_ledger : result -> (unit, string) Stdlib.result
(** Verify the skip-ledger conservation invariant: on every SM and for
    every statically eligible PC, the independently counted eligible
    dynamic occurrences equal the sum of recorded fates, and the
    aggregate ledger reproduces the per-SM sum. Holds bit-identically
    with fast-forwarding on or off; enforced by the CLI next to
    {!check_attribution}. *)

val check_invariants : result list -> (string * string) option
(** Every conservation invariant of the runs [rs], as the CLI, the
    checker and the fuzz differential enforce them: {!check_attribution}
    on each run, then {!check_ledger} on each. The first failure, as
    ([kind], message) with [kind] ["attribution"] or ["ledger"]; [None]
    when all hold. *)
