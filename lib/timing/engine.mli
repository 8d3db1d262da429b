(** The instruction-elimination engine interface.

    The SM pipeline is a fixed machine; BASE, UV, DAC-IDEAL, DARSIE and the
    DARSIE ablations are all engines plugged into it — mirroring the
    paper's controlled comparison. An engine can:

    - remove instructions from the stream before they are fetched at zero
      cost ([remove_at_fetch], used by the idealized DAC);
    - skip instructions pre-fetch with its own per-cycle logic
      ([cycle_skip], used by DARSIE: advances warps' trace cursors and
      accounts for skip-table/renaming activity and synchronization);
    - hold a warp back from fetching (clear the warp's [fetch_ok], used by
      DARSIE for branch synchronization, follower LeaderWB waits and
      freelist pressure);
    - drop instructions at issue after fetch/decode ([on_issue] = [Drop],
      used by UV's reuse buffer);
    - observe writebacks, stores and TB lifecycle events. *)

(** Per-warp pipeline context, owned by the SM but visible to engines. *)
type wctx = {
  wid : int;  (** SM-local warp slot *)
  tb_slot : int;  (** SM-local threadblock slot *)
  tb_id : int;  (** global threadblock index *)
  warp_in_tb : int;
  trace : Darsie_trace.Record.warp;
  len : int;  (** the trace's length: [Record.length trace] *)
  mutable fi : int;  (** next trace position to fetch *)
  ib_pos : int array;
  ib_cycle : int array;
  ib_idx : int array;
      (** the I-buffer of fetched ops awaiting issue: a ring of
          [Config.ibuf_depth] slots in three parallel arrays (trace
          position, fetch cycle, static instruction index, so issue need
          not decode the trace again) *)
  mutable ib_head : int;  (** slot of the oldest buffered op *)
  mutable ib_count : int;  (** buffered ops; [0] when the I-buffer is empty *)
  pending : int array;  (** scoreboard: outstanding writes per vreg *)
  mutable pending_count : int;
  mutable at_barrier : bool;
  mutable fetch_ready_at : int;  (** earliest cycle the next fetch may
                                     complete (I-cache miss fill) *)
  mutable mem_inflight : int;
      (** in-flight memory operations issued by this warp and not yet
          written back; maintained by the SM so stall classification
          needs no scan over the in-flight ops *)
  mutable mshr_used : int;
      (** miss-status holding registers this warp occupies: one per
          L1-missed line still in flight, released (out of order) at
          writeback. Gates global-load issue when [Config.mshrs] > 0;
          stays 0 when the knob is off. Maintained by the SM *)
  mutable fetch_ok : bool;
      (** engine fetch gate: the SM fetches for a warp only while this
          is [true]. Owned by the engine, inlined here so the skip phase
          pays a field access instead of a hash lookup. Only DARSIE
          clears it: it re-decides a warp only when its cursor moved,
          its TB's majority reset or an event woke it from a wait. A
          settled warp's gate is [true], except a waiter's: it sleeps
          with its gate [false] until woken. Starts [true] *)
  mutable parked_at : int;
      (** trace index this warp is parked at in a skip-table entry's
          warps-waiting bitmask, or [-1] when not parked; engine-owned.
          DARSIE parks a follower waiting for its leader's writeback —
          it sleeps until that writeback, a load flush or a barrier
          reset wakes it — and a warp waiting on an empty rename
          freelist, which it re-examines every cycle *)
  mutable skip_stall : int;
      (** consecutive cycles stalled on an empty rename freelist
          (DARSIE's bounded synchronization fallback); engine-owned *)
  mutable drop_reason : int;
      (** why this warp is off the majority path: [0] on path, [1]
          dropped by SIMD-mask divergence, [2] dropped at a branch
          synchronization; engine-owned skip-ledger provenance, reset
          when the majority mask resets at a barrier *)
  mutable gave_up_at : int;
      (** trace index at which this warp gave up waiting on an empty
          rename freelist and fell through to a real fetch, or [-1];
          engine-owned skip-ledger provenance *)
}

val warp_done : wctx -> bool
(** The trace cursor reached [len]: nothing is left to fetch. *)

type issue_decision = Execute | Drop

type t = {
  name : string;
  cycle_skip : cycle:int -> unit;
      (** called once per SM cycle, before fetch *)
  skip_steady : unit -> bool;
      (** true when the most recent [cycle_skip] mutated no engine or
          warp state — at most it accumulated per-cycle statistics
          (DARSIE's probe and sync-stall counters). A steady skip
          phase is a deterministic function of frozen state, so it
          repeats identically across a jumped span; this is the license
          the fast-forward path gates on. The fetch phase runs after
          [cycle_skip], so after a fetch that advanced any warp the SM
          steps once more before trusting it. Stateless engines return
          [true] *)
  bulk_skip : cycle:int -> n:int -> unit;
      (** charge [n] skipped executions of the skip phase ending at
          [cycle] in one call; invoked by {!Sm.fast_forward} only when
          [skip_steady ()] held. Accumulating engines run the phase
          once at [cycle] and scale the stat deltas by [n] (DARSIE: its
          sync-stall and probe counters, a sleeping waiter's stall
          included), which also leaves an engine clock (DARSIE's
          skip-table telemetry) where stepping would have, so a sleeping
          follower's parks, charged by that clock when it wakes, come
          out the same; stateless engines no-op *)
  recheck_fetch : wctx -> bool;
      (** re-evaluate the fetch gate for [w] at its {e current} cursor.
          [fetch_ok] holds the decision the skip phase made for the
          cursor it saw at the top of the cycle; a fetch-bundle follower
          slot ([Config.issue_width] > 1) has since advanced [fi], so
          the stale gate must not be trusted — a warp could sail past a
          branch synchronization without registering arrival. Gating
          engines re-run the single-warp pre-fetch window (registering
          syncs, parking, or chaining skips exactly as the skip phase
          would) and return the fresh gate; stateless engines return
          [true]. Called by the SM's fetch phase only between bundle
          slots, never for the first slot of a cycle *)
  remove_at_fetch : wctx -> int -> bool;
      (** the op hooks name an op by its position in the warp's
          [trace]; read its fields with the {!Darsie_trace.Record}
          accessors *)
  on_issue : cycle:int -> wctx -> int -> issue_decision;
  on_writeback : cycle:int -> wctx -> int -> unit;
  on_store : atomic:bool -> wctx -> unit;
      (** a store ([atomic = false]) or atomic ([atomic = true]) issued
          by this warp's TB — the load-entry flush trigger (§4.4) *)
  exec_fate : wctx -> int -> Darsie_obs.Ledger.fate;
      (** classify one {e executed} (really fetched) occurrence of a
          statically eligible instruction for the skip ledger; called by
          the SM's fetch phase exactly once per such occurrence. Engines
          without a skip path return
          {!Darsie_obs.Ledger.Skip_disabled} *)
  set_ledger : Darsie_obs.Ledger.t -> unit;
      (** receive the per-SM skip ledger at SM construction, so
          engine-internal pre-fetch skips can record their fates
          ([Skipped], [Parked_waiting_leaderwb]); engines without a skip
          path ignore it *)
  on_tb_launch : tb_slot:int -> warps:wctx array -> unit;
  on_tb_finish : tb_slot:int -> unit;
  debug_state : unit -> (string * int) list;
      (** engine-specific counters for failure diagnostics (e.g. DARSIE
          skip-table occupancy, free rename registers); cheap, called only
          when assembling an error dump *)
  pc_telemetry : unit -> (int * Darsie_obs.Pcstat.skip_entry) list;
      (** per-PC skip-table entry telemetry (DARSIE: allocations, follower
          hits, park cycles, flush causes, lifetimes), aggregated over the
          engine's whole lifetime; engines without a skip table return [[]] *)
}

val base : unit -> t
(** The do-nothing engine: the baseline GPU. *)

type factory = Kinfo.t -> Config.t -> Stats.t -> t
(** Engines are instantiated per SM with the kernel's static information,
    the configuration and the SM's stats block. *)

val base_factory : factory
