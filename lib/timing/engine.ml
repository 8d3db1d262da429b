type wctx = {
  wid : int;
  tb_slot : int;
  tb_id : int;
  warp_in_tb : int;
  trace : Darsie_trace.Record.warp;
  len : int;
  mutable fi : int;
  (* The I-buffer: a ring of [Config.ibuf_depth] fetched ops, as three
     parallel arrays (trace position, fetch cycle, static index). *)
  ib_pos : int array;
  ib_cycle : int array;
  ib_idx : int array;
  mutable ib_head : int;
  mutable ib_count : int;
  pending : int array;
  mutable pending_count : int;
  mutable at_barrier : bool;
  mutable fetch_ready_at : int;
  mutable mem_inflight : int;
  mutable mshr_used : int;
  (* Engine-owned per-warp scratch, inlined here so the skip phase's
     hottest per-warp-per-cycle accesses are field reads instead of
     Hashtbl traffic. Only the engine writes these; the SM's fetch gate
     reads [fetch_ok]. *)
  mutable fetch_ok : bool;
  mutable parked_at : int;
  mutable skip_stall : int;
  (* Skip-ledger provenance, engine-owned like the fields above: why this
     warp is off the majority path (0 = on path, 1 = divergence drop,
     2 = branch-sync drop) and the trace index at which it gave up on an
     empty rename freelist (-1 = it did not). *)
  mutable drop_reason : int;
  mutable gave_up_at : int;
}

let warp_done w = w.fi >= w.len

type issue_decision = Execute | Drop

type t = {
  name : string;
  cycle_skip : cycle:int -> unit;
  (* True when [cycle_skip] inspects warp state (trace cursors, parked
     sets). The SM's fetch phase runs after [cycle_skip], so for such
     engines a fetch invalidates the [skip_steady] snapshot and the SM
     must step one more cycle before fast-forwarding. *)
  skip_reads_warp_state : bool;
  (* True when the most recent [cycle_skip] mutated no engine or warp
     state — it only accumulated per-cycle statistics. Such a skip phase
     repeats identically while the SM is frozen, which licenses
     fast-forwarding: [bulk_skip] charges the skipped span. *)
  skip_steady : unit -> bool;
  (* Charge [n] skipped skip-phase executions at [cycle] in one call;
     only invoked when [skip_steady ()] held. Engines with per-cycle
     accumulation run the phase once and scale the deltas. *)
  bulk_skip : cycle:int -> n:int -> unit;
  on_fast_forward : cycle:int -> unit;
  (* Fresh fetch-gate decision at the warp's current cursor; bundle
     follower slots must use this, not the (stale) [fetch_ok]. *)
  recheck_fetch : wctx -> bool;
  remove_at_fetch : wctx -> int -> bool;
  on_issue : cycle:int -> wctx -> int -> issue_decision;
  on_writeback : cycle:int -> wctx -> int -> unit;
  on_store : atomic:bool -> wctx -> unit;
  (* Classify one executed (fetched, not skipped) occurrence of a
     statically eligible instruction for the skip ledger; the SM calls it
     at fetch time, once per occurrence. *)
  exec_fate : wctx -> int -> Darsie_obs.Ledger.fate;
  (* The SM hands the engine its per-SM skip ledger at construction so
     engine-internal skips (DARSIE's pre-fetch path) can record fates. *)
  set_ledger : Darsie_obs.Ledger.t -> unit;
  on_tb_launch : tb_slot:int -> warps:wctx array -> unit;
  on_tb_finish : tb_slot:int -> unit;
  debug_state : unit -> (string * int) list;
  pc_telemetry : unit -> (int * Darsie_obs.Pcstat.skip_entry) list;
}

let base () =
  {
    name = "BASE";
    cycle_skip = (fun ~cycle:_ -> ());
    skip_reads_warp_state = false;
    skip_steady = (fun () -> true);
    bulk_skip = (fun ~cycle:_ ~n:_ -> ());
    on_fast_forward = (fun ~cycle:_ -> ());
    recheck_fetch = (fun _ -> true);
    remove_at_fetch = (fun _ _ -> false);
    on_issue = (fun ~cycle:_ _ _ -> Execute);
    on_writeback = (fun ~cycle:_ _ _ -> ());
    on_store = (fun ~atomic:_ _ -> ());
    exec_fate = (fun _ _ -> Darsie_obs.Ledger.Skip_disabled);
    set_ledger = (fun _ -> ());
    on_tb_launch = (fun ~tb_slot:_ ~warps:_ -> ());
    on_tb_finish = (fun ~tb_slot:_ -> ());
    debug_state = (fun () -> []);
    pc_telemetry = (fun () -> []);
  }

type factory = Kinfo.t -> Config.t -> Stats.t -> t

let base_factory : factory = fun _ _ _ -> base ()
