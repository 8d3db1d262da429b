(** One streaming multiprocessor: the paper's Figure 4 pipeline.

    Per cycle: writeback of completed operations, barrier release, GTO
    dual-issue from per-warp instruction buffers (with scoreboard and
    structural hazards, register-file bank conflicts, and the memory
    system), then the plugged-in engine's pre-fetch skip phase, then
    loose-round-robin fetch into the I-buffers.

    The SM is trace-driven: each resident warp replays the instruction
    stream recorded by the functional emulator. *)

type t

val sample_names : string list
(** Counter names (column order) of the per-interval time-series. *)

val create :
  ?sm_id:int ->
  ?sink:Darsie_obs.Sink.t ->
  ?series:Darsie_obs.Series.t ->
  ?pcstat:Darsie_obs.Pcstat.t ->
  Config.t ->
  Kinfo.t ->
  Engine.factory ->
  slots:int ->
  warps_per_tb:int ->
  t
(** [sm_id] tags emitted events (default 0); [sink] defaults to the null
    sink (tracing off costs one branch per event site); [series], when
    given, receives an interval-sampled counter snapshot (see
    {!sample_names}); [pcstat], when given, receives per-static-PC
    occurrence counters and a per-cycle stall charge mirroring
    {!attribution}. Issue-stage DRAM requests queue locally under a
    placeholder completion until {!commit_epoch} replays them against
    the shared channel. *)

val can_accept : t -> bool
(** Has a free threadblock slot. *)

val launch_tb : t -> tb_id:int -> traces:Darsie_trace.Record.warp array -> unit
(** Install a threadblock's per-warp traces into a free slot.

    @raise Invalid_argument when no slot is free. *)

val step : t -> unit
(** Advance one cycle. *)

val check_derived : t -> (unit, string) result
(** Recompute from scratch the state the SM maintains incrementally, and
    compare it with the maintained copy: every warp's ready bit — the
    warp-local part of the issue gate: not at a barrier, an I-buffer
    head, and that head clears the scoreboard — each scheduler's count
    of ready warps, and the two ascending indexes the per-step stages
    walk, of the occupied threadblock slots and of the resident warps'
    ids. The error names the SM, the cycle and the first mismatch: the
    warp or scheduler and both values, or the index entry, both values
    and both entry counts. Valid between two {!step} calls. *)

val next_event_cycle : t -> int
(** Earliest future cycle at which stepping this SM could do anything
    observable: the soonest of a pending writeback completion, a barrier
    release (or a barrier/retirement state transition due next step), a
    scoreboard-ready instruction-buffer head, a fetch-latency expiry, the
    next time-series sampling boundary, or "runnable now" whenever the
    plugged-in engine's skip phase was not a no-op last cycle. [max_int]
    means no event will ever fire (idle, or deadlocked — the cycle loop
    fast-forwards it and the watchdog judges the frozen span). Valid
    between two {!step} calls; conservative by construction. *)

val fast_forward : t -> to_:int -> unit
(** Jump the clock to [to_] without stepping, bulk-charging the skipped
    span into the same {!attribution} bucket, per-PC charge and stall
    counters that stepping each cycle would have produced. Only sound
    when [to_ < next_event_cycle t]; bit-identical to stepping by
    construction. *)

val busy : t -> bool
(** True while any threadblock is resident or operations are in flight. *)

val stats : t -> Stats.t

val engine_name : t -> string

val cycle : t -> int

val attribution : t -> Darsie_obs.Attrib.t
(** Per-cycle stall attribution; its total equals {!cycle} at any point
    between two {!step} calls. *)

val ledger : t -> Darsie_obs.Ledger.t
(** The always-on skip ledger: per statically eligible PC, the fates of
    every dynamic occurrence this SM has fully fetched or skipped. Its
    conservation invariant (eligible = Σ fates) holds once the SM has
    drained; see {!Gpu.check_ledger}. *)

val pcstat : t -> Darsie_obs.Pcstat.t option
(** The per-PC profile passed to {!create}, if any. Complete only after
    {!finalize} (which folds in engine-side skip telemetry). *)

val skip_telemetry : t -> (int * Darsie_obs.Pcstat.skip_entry) list
(** Per-PC skip-table entry telemetry from the plugged-in engine; empty
    for engines without a skip table. *)

val inflight_count : t -> int
(** Operations currently between issue and writeback. *)

val progress_token : t -> int
(** Monotone counter that advances exactly when the SM fetched, issued,
    dropped or skipped something. The GPU-level deadlock watchdog fires
    when every SM's token freezes with nothing in flight. *)

val tbs_retired : t -> int
(** Monotone count of threadblocks this SM has retired. The cycle loop
    pauses an SM whenever this advances so the epoch barrier can replay
    the dispatch scan at the exact retirement instant. *)

val last_wb_cycle : t -> int
(** Cycle of this SM's most recent writeback (0 before any). With
    {!last_progress}, lets the cycle loop evaluate the per-cycle
    deadlock watchdog exactly at epoch barriers. *)

val last_progress : t -> int
(** Most recent cycle at which this SM's {!progress_token} advanced
    (1 before any, mirroring the per-cycle watchdog's one-compare
    lag). *)

val commit_epoch : dram:Mem_model.Dram.t -> t array -> int
(** Epoch barrier of the cycle loop: drain every SM's deferred DRAM
    queue, replay the requests against [dram] in canonical (cycle, SM
    index, issue sequence) order — the order the channel would see if
    every SM stepped every cycle in index order — patch the placeholder
    completions of the affected in-flight ops, note each patched
    load's latency in the per-PC profile, and restore each SM's
    earliest-writeback bound. Sound because the epoch length never
    exceeds [l1_lat + dram_lat], so no deferred request can complete
    within the epoch that issued it. Returns the number of requests
    replayed. *)

val warp_snapshots : t -> Darsie_check.Sim_error.warp_snapshot list
(** Per-resident-warp state for failure diagnostics. *)

val debug_state : t -> (string * int) list
(** The plugged-in engine's diagnostic counters. *)

val series : t -> Darsie_obs.Series.t option

val finalize : t -> unit
(** Flush the trailing partial sampling interval and fold engine-side
    skip telemetry into the per-PC profile. Call once after the last
    {!step}. *)
