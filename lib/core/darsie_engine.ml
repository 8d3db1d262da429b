open Darsie_timing
open Darsie_trace

type options = { ignore_store : bool; no_cf_sync : bool }

let default_options = { ignore_store = false; no_cf_sync = false }

let name_of o =
  match (o.ignore_store, o.no_cf_sync) with
  | false, false -> "DARSIE"
  | true, false -> "DARSIE-IGNORE-STORE"
  | false, true -> "DARSIE-NO-CF-SYNC"
  | true, true -> "DARSIE-IGNORE-STORE-NO-CF-SYNC"

(* A branch sync, keyed in its TB's [syncs] by [sync_key]. *)
type sync_entry = {
  owner : slot_state;
  mutable arrived : int;
  mutable released : bool;
  mutable first_succ : int;
}

and slot_state = {
  skip : Skip_table.t;
  majority : Majority.t;
  syncs : (int, sync_entry) Hashtbl.t;
  mutable open_syncs : int;  (* entries with arrivals, not yet released *)
  settled : int array;  (* per warp: cursor of its last no-op visit, or -1 *)
  mutable warps : Engine.wctx array;
  mutable bar_arrived : int;
}

(* (branch pc, occurrence) packed into one int; an occurrence count
   stays below 2^32. *)
let sync_key pc occ = (pc lsl 32) lor occ

let warp_drained (w : Engine.wctx) =
  Engine.warp_done w && w.Engine.ib_count = 0

(* Warps still producing work: a finished warp must not gate
   synchronization or register freeing. *)
let alive_mask slot =
  let m = ref 0 in
  for k = 0 to Array.length slot.warps - 1 do
    let w = slot.warps.(k) in
    if w.Engine.fi < w.Engine.len then m := !m lor (1 lsl w.Engine.warp_in_tb)
  done;
  !m

let successor_of (w : Engine.wctx) =
  if w.Engine.fi + 1 < w.Engine.len then
    Record.idx w.Engine.trace (w.Engine.fi + 1)
  else -1

let make ?(options = default_options) (kinfo : Kinfo.t) (cfg : Config.t)
    (stats : Stats.t) =
  (* The SM-wide PC skip table has skip_entries_per_tb x max_tbs_per_sm
     entries (256 in the paper); when occupancy limits leave fewer
     threadblocks resident, each resident TB's share of the pool grows. *)
  let entries_per_tb =
    if options.no_cf_sync then max_int / 2
    else begin
      let warps_per_tb =
        Darsie_isa.Kernel.warps_per_block kinfo.Kinfo.launch
          ~warp_size:cfg.Config.warp_size
      in
      let resident = Gpu.occupancy cfg kinfo.Kinfo.kernel ~warps_per_tb in
      max cfg.Config.skip_entries_per_tb
        (cfg.Config.skip_entries_per_tb * cfg.Config.max_tbs_per_sm / resident)
    end
  in
  let rename_regs_per_tb =
    if options.no_cf_sync then max_int / 2
    else cfg.Config.rename_regs_per_tb
  in
  (* One telemetry block outlives the per-TB tables, so [pc_telemetry]
     reports entry statistics over the SM's whole run. *)
  let telemetry = Skip_table.Telemetry.create () in
  let slots : (int, slot_state) Hashtbl.t = Hashtbl.create 8 in
  (* The same TBs indexed by SM slot, for the per-warp hooks' lookups;
     [Gpu.occupancy] caps an SM's TB slots at this size. *)
  let by_slot = Array.make (max 1 cfg.Config.max_tbs_per_sm) None in
  let slot_of (w : Engine.wctx) = by_slot.(w.Engine.tb_slot) in
  let full_mask = (1 lsl cfg.Config.warp_size) - 1 in
  (* Steadiness tracking for the fast-forward path: [state_mutated] is
     cleared at the top of every [cycle_skip] and set by any change to
     engine or warp state (parks, releases, cursor moves, table traffic,
     fetch gating). A skip phase that only accumulated statistics leaves
     it false — it will repeat identically while the SM is frozen, so
     a jumped span can charge it in bulk (see [bulk_skip]). *)
  let state_mutated = ref true in
  let mutated () = state_mutated := true in
  (* The fetch gate, park site and freelist-stall counter are per-warp
     fields inlined in the SM's warp context ([Engine.wctx]) — the skip
     phase touches them for every unsettled warp every cycle, so they
     must not go through a hash table. *)
  let set_ok (w : Engine.wctx) v =
    if w.Engine.fetch_ok <> v then begin
      mutated ();
      w.Engine.fetch_ok <- v
    end
  in
  (* A warp stalled at a skip-table instruction registers in the entry's
     warps-waiting bitmask (§4.3.2 field 2) and is woken by the leader's
     writeback — re-checking costs no PC-coalescer port. [parked_at] is
     the trace index the warp is parked at, [-1] when not parked. *)
  let park (w : Engine.wctx) =
    if w.Engine.parked_at <> w.Engine.fi then begin
      mutated ();
      w.Engine.parked_at <- w.Engine.fi
    end
  in
  let unpark (w : Engine.wctx) =
    if w.Engine.parked_at >= 0 then begin
      mutated ();
      w.Engine.parked_at <- -1
    end
  in
  let bump_stall (w : Engine.wctx) =
    mutated ();
    w.Engine.skip_stall <- w.Engine.skip_stall + 1;
    w.Engine.skip_stall
  in
  let clear_stall (w : Engine.wctx) =
    if w.Engine.skip_stall <> 0 then begin
      mutated ();
      w.Engine.skip_stall <- 0
    end
  in
  (* Finished warps must not gate freeing (strict mode would deadlock on
     them); the idealized no-sync mode instead holds versions for
     laggards — it has unbounded rename registers, so early frees would
     only force spurious re-execution. *)
  let effective_majority slot =
    if options.no_cf_sync then Majority.mask slot.majority
    else Majority.mask slot.majority land alive_mask slot
  in
  (* The per-SM skip ledger, handed over by the SM at construction.
     Fates decided inside the skip phase (follower skips) are recorded
     here; executed occurrences are classified by [exec_fate] below. *)
  let ledger = ref None in
  let note_fate pc fate =
    match !ledger with
    | None -> ()
    | Some l -> Darsie_obs.Ledger.note l ~pc fate
  in
  (* [reason] is the ledger's drop provenance: 1 = SIMD-mask divergence,
     2 = branch synchronization; recorded only on a real on-path ->
     off-path transition so the first cause wins. *)
  let drop_from_majority ~reason slot (w : Engine.wctx) =
    if Majority.on_path slot.majority w.Engine.warp_in_tb then begin
      mutated ();
      w.Engine.drop_reason <- reason;
      Majority.drop slot.majority w.Engine.warp_in_tb;
      stats.Stats.majority_updates <- stats.Stats.majority_updates + 1;
      Skip_table.recheck slot.skip ~majority:(effective_majority slot)
    end
  in
  (* Branch-synchronization release: the majority of arrived warps picks
     the continuation path; warps headed elsewhere leave the majority. *)
  let release_sync slot entry =
    mutated ();
    let votes = Hashtbl.create 4 in
    Array.iter
      (fun (w : Engine.wctx) ->
        let b = 1 lsl w.Engine.warp_in_tb in
        if entry.arrived land b <> 0 then begin
          let s = successor_of w in
          Hashtbl.replace votes s
            (1 + Option.value ~default:0 (Hashtbl.find_opt votes s))
        end)
      slot.warps;
    let winner =
      Hashtbl.fold
        (fun succ n best ->
          match best with
          | Some (_, bn) when bn > n -> best
          | Some (bs, bn) when bn = n && bs <= succ -> best
          | _ -> Some (succ, n))
        votes None
    in
    (match winner with
    | Some (succ, _) ->
      Array.iter
        (fun (w : Engine.wctx) ->
          let b = 1 lsl w.Engine.warp_in_tb in
          if entry.arrived land b <> 0 && successor_of w <> succ then
            drop_from_majority ~reason:2 slot w)
        slot.warps
    | None -> ());
    entry.released <- true;
    slot.open_syncs <- slot.open_syncs - 1
  in
  (* The PCs that used a PC-coalescer port this cycle: PC [i] is in the
     set when [probe_mark.(i)] is the current generation. The set is not
     capped at [coalescer_ports], since chained skips add PCs past it. *)
  let probe_mark = Array.make (Array.length kinfo.Kinfo.tb_redundant) (-1) in
  let probe_gen = ref 0 and n_probed = ref 0 in
  let probed idx = probe_mark.(idx) = !probe_gen in
  (* Park telemetry funnels through here so [bulk_skip]'s representative
     run can log which PCs park and replay them over the scaled span. *)
  let record_parks = ref false in
  let park_log : (int, int) Hashtbl.t = Hashtbl.create 8 in
  let note_park idx =
    Skip_table.Telemetry.note_park telemetry ~pc:idx;
    if !record_parks then
      Hashtbl.replace park_log idx
        (1 + Option.value ~default:0 (Hashtbl.find_opt park_log idx))
  in
  (* Process one warp's pre-fetch window; returns nothing, sets fetch_ok.
     A no-op visit (finished, at a barrier, off the majority path, or on
     it at a full-mask instruction that is neither a branch nor
     TB-redundant) settles the warp: it stays a no-op until the cursor
     moves or a barrier resets the majority, so [cycle_skip] skips it. *)
  let settle slot (w : Engine.wctx) =
    slot.settled.(w.Engine.warp_in_tb) <- w.Engine.fi;
    set_ok w true
  in
  (* Built once per engine, like every function the skip phase calls,
     so a visit allocates no closure. *)
  let rec go slot (w : Engine.wctx) chain =
    let win = w.Engine.warp_in_tb in
    if w.Engine.fi >= w.Engine.len then settle slot w
    else begin
      let idx = Record.idx w.Engine.trace w.Engine.fi in
      if kinfo.Kinfo.is_barrier.(idx) then settle slot w
      else if
        Record.active w.Engine.trace w.Engine.fi land full_mask <> full_mask
        && Majority.on_path slot.majority win
      then begin
        (* Intra-warp SIMD divergence: leave the majority path (§4.5). *)
        drop_from_majority ~reason:1 slot w;
        set_ok w true
      end
      else if not (Majority.on_path slot.majority win) then settle slot w
      else if kinfo.Kinfo.is_branch.(idx) then begin
        let key = sync_key idx (Record.occ w.Engine.trace w.Engine.fi) in
        let entry =
          match Hashtbl.find slot.syncs key with
          | e -> e
          | exception Not_found ->
            mutated ();
            let e =
              {
                owner = slot;
                arrived = 0;
                released = false;
                first_succ = successor_of w;
              }
            in
            Hashtbl.add slot.syncs key e;
            e
        in
        if options.no_cf_sync then begin
          (* Idealized: no stall; deviation from the first arrival's
             path drops the warp from the majority. *)
          if successor_of w <> entry.first_succ then
            drop_from_majority ~reason:2 slot w;
          set_ok w true
        end
        else if entry.released then set_ok w true
        else begin
          let arrived' = entry.arrived lor (1 lsl win) in
          if arrived' <> entry.arrived then begin
            mutated ();
            if entry.arrived = 0 then slot.open_syncs <- slot.open_syncs + 1;
            entry.arrived <- arrived'
          end;
          let majority = effective_majority slot in
          if entry.arrived land majority = majority then begin
            release_sync slot entry;
            set_ok w true
          end
          else begin
            stats.Stats.darsie_sync_stalls <-
              stats.Stats.darsie_sync_stalls + 1;
            set_ok w false
          end
        end
      end
      else if kinfo.Kinfo.tb_redundant.(idx) then begin
        (* PC coalescer: a bounded number of distinct skip PCs are
           serviced per cycle; chained skips ride the +8 adders, and
           warps already parked in an entry's waiting bitmask are woken
           for free. *)
        let is_parked = w.Engine.parked_at = w.Engine.fi in
        let port_ok =
          chain > 0 || is_parked || probed idx
          || !n_probed < cfg.Config.coalescer_ports
        in
        if not port_ok then set_ok w false
        else begin
          if (not is_parked) && not (probed idx) then begin
            probe_mark.(idx) <- !probe_gen;
            incr n_probed;
            stats.Stats.coalescer_probes <- stats.Stats.coalescer_probes + 1
          end;
          if not is_parked then
            stats.Stats.skip_table_probes <- stats.Stats.skip_table_probes + 1;
          let occ = Record.occ w.Engine.trace w.Engine.fi in
          let inst = Skip_table.lookup slot.skip ~pc:idx ~occ in
          if inst == Skip_table.absent then begin
              if not (Skip_table.has_entry_slot slot.skip ~pc:idx) then begin
                (* Table full: execute normally, no skipping. *)
                unpark w;
                set_ok w true
              end
              else if not (Skip_table.has_free_reg slot.skip) then begin
                (* Freelist empty: synchronize until a version frees; a
                   bounded fallback keeps forward progress. *)
                if options.no_cf_sync then set_ok w true
                else if bump_stall w > 64 then begin
                  clear_stall w;
                  unpark w;
                  (* Bounded wait exhausted: the warp executes this
                     occurrence itself; remember why for the ledger. *)
                  w.Engine.gave_up_at <- w.Engine.fi;
                  set_ok w true
                end
                else begin
                  park w;
                  stats.Stats.darsie_sync_stalls <-
                    stats.Stats.darsie_sync_stalls + 1;
                  set_ok w false
                end
              end
              else begin
                mutated ();
                Skip_table.allocate slot.skip ~pc:idx ~occ ~leader:win
                  ~mem_dep:kinfo.Kinfo.mem_dep.(idx);
                stats.Stats.rename_accesses <- stats.Stats.rename_accesses + 1;
                clear_stall w;
                unpark w;
                w.Engine.gave_up_at <- -1;
                set_ok w true
              end
          end
          else if inst.Skip_table.leader = win then begin
            (* The leader executes its own instruction. *)
            unpark w;
            set_ok w true
          end
          else if inst.Skip_table.leader_wb || options.no_cf_sync then begin
            (* Follower skip: PC += 8, remap the register version. The
               occurrence's ledger fate is decided here: a warp that had
               parked for LeaderWB resolves as parked-then-skipped, an
               immediate hit as a plain skip. Skips always mutate state,
               so this site is never replayed by a fast-forwarded span. *)
            mutated ();
            note_fate idx
              (if is_parked then Darsie_obs.Ledger.Parked_waiting_leaderwb
               else Darsie_obs.Ledger.Skipped);
            unpark w;
            w.Engine.gave_up_at <- -1;
            w.Engine.fi <- w.Engine.fi + 1;
            stats.Stats.skipped_prefetch <- stats.Stats.skipped_prefetch + 1;
            stats.Stats.rename_accesses <- stats.Stats.rename_accesses + 1;
            Stats.note_eliminated stats kinfo.Kinfo.shape.(idx);
            Skip_table.mark_passed slot.skip ~pc:idx ~occ ~warp:win
              ~majority:(effective_majority slot);
            clear_stall w;
            if chain + 1 < cfg.Config.max_skips_per_warp_cycle then
              go slot w (chain + 1)
            else set_ok w false
          end
          else begin
            (* Follower parks in the warps-waiting bitmask until
               LeaderWB (§4.3.2, field 5). *)
            park w;
            note_park idx;
            stats.Stats.darsie_sync_stalls <-
              stats.Stats.darsie_sync_stalls + 1;
            set_ok w false
          end
        end
      end
      else settle slot w
    end
  and process_warp slot (w : Engine.wctx) =
    slot.settled.(w.Engine.warp_in_tb) <- -1;
    go slot w 0
  in
  (* Release a branch sync that completed since last cycle (e.g. the
     majority shrank). *)
  let release_ready _ e =
    if (not e.released) && e.arrived <> 0 then begin
      let majority = effective_majority e.owner in
      if e.arrived land majority = majority then release_sync e.owner e
    end
  in
  let visit_tb _ slot =
    if slot.open_syncs > 0 then Hashtbl.iter release_ready slot.syncs;
    for k = 0 to Array.length slot.warps - 1 do
      let w = slot.warps.(k) in
      if w.Engine.fi <> slot.settled.(w.Engine.warp_in_tb) then
        process_warp slot w
    done
  in
  let last_skip_steady = ref false in
  let cycle_skip ~cycle =
    Skip_table.Telemetry.set_now telemetry cycle;
    state_mutated := false;
    incr probe_gen;
    n_probed := 0;
    (* TB visit order picks who gets the coalescer ports; digests pin it. *)
    Hashtbl.iter visit_tb slots;
    last_skip_steady := not !state_mutated
  in
  (* Charge [n] skipped skip-phase executions in one call. Sound only
     after a steady phase: [cycle_skip] is a deterministic function of
     engine and warp state plus the telemetry clock (which only matters
     on flush paths, and flushes are mutations), so with everything
     frozen all [n] executions are identical — run one for real and
     scale its accumulations (the wait counters below and the per-PC
     park telemetry) over the remaining [n - 1]. No other counter can
     move: skips, entry allocations and majority drops all mutate.
     Running it at [cycle] also leaves the telemetry clock where stepping
     would have, so instance lifetimes flushed on the landing cycle are
     identical. *)
  let bulk_skip ~cycle ~n =
    if n > 0 then begin
      let sync0 = stats.Stats.darsie_sync_stalls
      and coa0 = stats.Stats.coalescer_probes
      and pro0 = stats.Stats.skip_table_probes in
      Hashtbl.reset park_log;
      record_parks := true;
      cycle_skip ~cycle;
      record_parks := false;
      if !state_mutated then
        invalid_arg "Darsie_engine.bulk_skip: skip phase was not steady";
      let k = n - 1 in
      if k > 0 then begin
        stats.Stats.darsie_sync_stalls <-
          stats.Stats.darsie_sync_stalls
          + ((stats.Stats.darsie_sync_stalls - sync0) * k);
        stats.Stats.coalescer_probes <-
          stats.Stats.coalescer_probes
          + ((stats.Stats.coalescer_probes - coa0) * k);
        stats.Stats.skip_table_probes <-
          stats.Stats.skip_table_probes
          + ((stats.Stats.skip_table_probes - pro0) * k);
        Hashtbl.iter
          (fun pc c ->
            Skip_table.Telemetry.note_parks telemetry ~pc ~n:(c * k))
          park_log
      end
    end
  in
  (* A fetch-bundle follower slot advanced [fi] past the instruction the
     skip phase gated on, so [fetch_ok] is stale; re-run the single-warp
     pre-fetch window at the new cursor. This shares the cycle's
     [probed] port table (a follower consult competes for the same
     PC-coalescer ports) and mutates exactly like the skip phase —
     register a sync arrival, park, or chain skips. Any mutation it
     makes follows a real fetch this cycle, and a fetch already forces
     the SM to step normally ([Sm.next_event_cycle]), so the
     fast-forward steadiness snapshot is never trusted after it. *)
  let recheck_fetch (w : Engine.wctx) =
    (match slot_of w with
    | Some slot -> process_warp slot w
    | None -> set_ok w true);
    w.Engine.fetch_ok
  in
  let on_issue ~cycle:_ (w : Engine.wctx) i =
    (match slot_of w with
    | None -> ()
    | Some slot ->
      if kinfo.Kinfo.is_barrier.(Record.idx w.Engine.trace i) then begin
        slot.bar_arrived <- slot.bar_arrived lor (1 lsl w.Engine.warp_in_tb);
        let expected =
          Array.fold_left
            (fun acc (x : Engine.wctx) ->
              if warp_drained x && x.Engine.wid <> w.Engine.wid then acc
              else acc lor (1 lsl x.Engine.warp_in_tb))
            0 slot.warps
        in
        if slot.bar_arrived land expected = expected then begin
          (* All warps synchronized: majority bits set back to one and the
             pre-barrier skip state retired (§4.3.3). Every warp is back
             on the path, so the ledger's drop provenance resets too. *)
          Majority.reset slot.majority;
          Array.iter
            (fun (x : Engine.wctx) -> x.Engine.drop_reason <- 0)
            slot.warps;
          Skip_table.flush_all slot.skip;
          Hashtbl.reset slot.syncs;
          slot.open_syncs <- 0;
          Array.fill slot.settled 0 (Array.length slot.settled) (-1);
          slot.bar_arrived <- 0
        end
      end);
    Engine.Execute
  in
  let on_writeback ~cycle:_ (w : Engine.wctx) i =
    let idx = Record.idx w.Engine.trace i in
    if kinfo.Kinfo.tb_redundant.(idx) then
      match slot_of w with
      | None -> ()
      | Some slot ->
        Skip_table.mark_writeback slot.skip ~pc:idx
          ~occ:(Record.occ w.Engine.trace i)
          ~majority:(effective_majority slot)
  in
  let on_store ~atomic (w : Engine.wctx) =
    if not options.ignore_store then
      match slot_of w with
      | None -> ()
      | Some slot ->
        Skip_table.flush_loads slot.skip
          ~kind:(if atomic then `Atomic else `Store)
  in
  (* Classify one really-fetched occurrence of a TB-redundant PC. The
     precedence mirrors the skip phase's decision order: off-path warps
     first (they never consult the table), then flush provenance (which
     also covers the original leader refetching post-flush), then the
     bounded freelist wait, then a live instance led by this warp; what
     remains executed because the 8-entry table was exhausted. *)
  let exec_fate (w : Engine.wctx) i =
    let idx = Record.idx w.Engine.trace i in
    let occ = Record.occ w.Engine.trace i in
    match slot_of w with
    | None -> Darsie_obs.Ledger.Skip_disabled
    | Some slot -> (
      let win = w.Engine.warp_in_tb in
      if w.Engine.drop_reason = 1 then Darsie_obs.Ledger.Blocked_divergence
      else if w.Engine.drop_reason = 2 then Darsie_obs.Ledger.Blocked_branch_sync
      else
        match
          Skip_table.consume_flush slot.skip ~pc:idx ~occ
        with
        | Some (_, leader) when leader = win ->
          (* The leader's own execution: the flush happened between its
             allocation and its fetch. *)
          Darsie_obs.Ledger.Leader_executed
        | Some (`Store, _) -> Darsie_obs.Ledger.Flushed_store
        | Some (`Atomic, _) -> Darsie_obs.Ledger.Flushed_atomic
        | None -> (
          if w.Engine.gave_up_at = w.Engine.fi then begin
            w.Engine.gave_up_at <- -1;
            Darsie_obs.Ledger.Freelist_stall
          end
          else if
            (Skip_table.lookup slot.skip ~pc:idx ~occ).Skip_table.leader = win
          then Darsie_obs.Ledger.Leader_executed
          else Darsie_obs.Ledger.Evicted_capacity))
  in
  let on_tb_launch ~tb_slot ~warps =
    let slot =
      {
        skip =
          (let t =
             Skip_table.create ~max_entries:entries_per_tb
               ~rename_regs:rename_regs_per_tb
           in
           Skip_table.attach_telemetry t telemetry;
           t);
        majority = Majority.create ~warps:(Array.length warps);
        syncs = Hashtbl.create 64;
        open_syncs = 0;
        settled = Array.make (Array.length warps) (-1);
        warps;
        bar_arrived = 0;
      }
    in
    Hashtbl.replace slots tb_slot slot;
    by_slot.(tb_slot) <- Some slot
  in
  let on_tb_finish ~tb_slot =
    Hashtbl.remove slots tb_slot;
    by_slot.(tb_slot) <- None
  in
  let debug_state () =
    Hashtbl.fold
      (fun _ slot (entries, insts, parked_w, syncs) ->
        ( entries + Skip_table.live_entries slot.skip,
          insts + Skip_table.live_instances slot.skip,
          parked_w
          + Array.fold_left
              (fun a (w : Engine.wctx) ->
                if w.Engine.parked_at >= 0 then a + 1 else a)
              0 slot.warps,
          syncs + slot.open_syncs ))
      slots
      (0, 0, 0, 0)
    |> fun (entries, insts, parked_w, syncs) ->
    [
      ("skip_entries", entries);
      ("live_instances", insts);
      ("parked_warps", parked_w);
      ("open_syncs", syncs);
      ("resident_tbs", Hashtbl.length slots);
    ]
  in
  {
    Engine.name = name_of options;
    cycle_skip;
    skip_steady = (fun () -> !last_skip_steady);
    bulk_skip;
    recheck_fetch;
    remove_at_fetch = (fun _ _ -> false);
    on_issue;
    on_writeback;
    on_store;
    exec_fate;
    set_ledger = (fun l -> ledger := Some l);
    on_tb_launch;
    on_tb_finish;
    debug_state;
    pc_telemetry = (fun () -> Skip_table.Telemetry.entries telemetry);
  }

let factory ?options () : Engine.factory =
 fun kinfo cfg stats -> make ?options kinfo cfg stats
