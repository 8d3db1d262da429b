open Darsie_trace
module Obs = Darsie_obs

type slot_state = {
  mutable occupied : bool;
  mutable tb_id : int;
  mutable inflight_ops : int;
  mutable barrier_release_at : int;  (* -1 when no release pending *)
  mutable n_at_barrier : int;  (* resident warps with at_barrier set *)
}

type in_flight = {
  fly_warp : Engine.wctx;
  fly_op : Record.op;
  (* A deferred DRAM request carries a [max_int] placeholder until the
     epoch barrier replays the queue and patches the real completion in
     ([commit_epoch]). *)
  mutable finish : int;
  fly_mshrs : int;  (* MSHR entries this op holds until writeback *)
}

(* One deferred DRAM channel access: everything needed to replay
   [Mem_model.Dram.request] at the epoch barrier in canonical order,
   plus the in-flight record whose placeholder finish the replay patches
   ([None] for stores, whose pipeline latency does not depend on the
   channel). *)
type dram_req = {
  dq_now : int;  (* the [~now] the issue site would have passed *)
  dq_ntxns : int;
  mutable dq_fly : in_flight option;
}

type t = {
  cfg : Config.t;
  kinfo : Kinfo.t;
  stats : Stats.t;
  engine : Engine.t;
  l1 : Mem_model.L1.t;
  icache : Mem_model.L1.t;
  collectors : int array;  (* per-unit busy-until cycle *)
  slots : slot_state array;
  warps : Engine.wctx option array;  (* wid = slot * warps_per_tb + lane *)
  warps_per_tb : int;
  mutable inflight : in_flight list;
  mutable n_inflight : int;
  mutable next_wb : int;  (* earliest finish in [inflight]; max_int if none *)
  mutable fetch_ptr : int;
  (* True when this cycle's fetch phase advanced any warp (fi, ibuf or
     fetch_ready_at changed). Fetch runs after the engine's cycle_skip,
     so its [skip_steady] snapshot is stale whenever this is set. *)
  mutable fetch_mutated : bool;
  greedy : int array;  (* per scheduler: preferred wid, or -1 *)
  mutable cycle : int;
  bank_use : int array;  (* per-RF-bank reads scheduled this cycle *)
  sm_id : int;
  sink : Obs.Sink.t;
  attr : Obs.Attrib.t;
  ledger : Obs.Ledger.t;
  pcstat : Obs.Pcstat.t option;
  series : Obs.Series.t option;
  mutable issue_slots_used : int;  (* issues + drops this cycle *)
  mutable active_pc : int;  (* first PC issued/dropped this cycle *)
  mutable last_barrier_pc : int;  (* most recent barrier-setting PC *)
  (* Shared-memory bank-conflict replay port (smem_banks > 0): the port
     is busy serializing replays through [smem_replay_until], and
     [smem_replay_pc] names the occupying access for stall blame. Both
     stay at their initial values when the knob is off. *)
  mutable smem_replay_until : int;
  mutable smem_replay_pc : int;
  (* Epoch-loop bookkeeping. Issue-stage DRAM requests queue in
     [dram_q] (reverse issue order) instead of reaching the shared
     channel; [dram_patch] carries the request between [dram_request]
     and the [add_inflight] whose record it must patch. The remaining
     fields let the cycle loop reproduce per-cycle TB dispatch and the
     deadlock watchdog exactly: [tbs_retired] is a monotone retirement
     counter (a shard pauses at a retirement so the barrier can replay
     the dispatch scan), [last_wb_cycle] / [last_progress] timestamp the
     most recent writeback and progress-token movement. *)
  mutable dram_q : dram_req list;
  mutable dram_patch : dram_req option;
  (* Per-PC stall charges (bucket, cycles, candidates) whose blamed
     instruction depends on a placeholder completion, resolved by
     [commit_epoch]; [blame_cands] carries the candidates from
     [nearest_inflight_pc] to the charge site. *)
  mutable blame_pending : (Obs.Attrib.bucket * int * in_flight list) list;
  mutable blame_cands : in_flight list;
  mutable tbs_retired : int;
  mutable last_wb_cycle : int;
  mutable last_progress : int;
  mutable progress_snapshot : int;
}

(* Counters snapshotted into the per-interval time-series; the order here
   is the column order of the CSV/JSON exports. *)
let sample_names =
  [ "issued"; "fetched"; "skipped_prefetch"; "dropped_issue"; "icache_misses";
    "l1_accesses"; "l1_misses"; "dram_transactions"; "barrier_stall_cycles";
    "darsie_sync_stalls" ]

let sample_snapshot (s : Stats.t) =
  [|
    s.Stats.issued; s.Stats.fetched; s.Stats.skipped_prefetch;
    s.Stats.dropped_issue; s.Stats.icache_misses; s.Stats.l1_accesses;
    s.Stats.l1_misses; s.Stats.dram_transactions;
    s.Stats.barrier_stall_cycles; s.Stats.darsie_sync_stalls;
  |]

let create ?(sm_id = 0) ?(sink = Obs.Sink.null) ?series ?pcstat cfg kinfo
    factory ~slots ~warps_per_tb =
  let stats = Stats.create () in
  let engine = factory kinfo cfg stats in
  (* The skip ledger is always on (a handful of int arrays); the engine
     gets a handle so its internal pre-fetch skips can record fates. *)
  let ledger = Obs.Ledger.create ~n:(Array.length kinfo.Kinfo.unit_of) in
  engine.Engine.set_ledger ledger;
  {
    cfg;
    kinfo;
    stats;
    engine;
    l1 =
      Mem_model.L1.create ~bytes:cfg.Config.l1_bytes ~assoc:cfg.Config.l1_assoc
        ~line:cfg.Config.l1_line;
    icache =
      Mem_model.L1.create ~bytes:cfg.Config.icache_bytes ~assoc:4
        ~line:cfg.Config.icache_line;
    collectors = Array.make cfg.Config.collector_units 0;
    slots =
      Array.init slots (fun _ ->
          {
            occupied = false;
            tb_id = -1;
            inflight_ops = 0;
            barrier_release_at = -1;
            n_at_barrier = 0;
          });
    warps = Array.make (slots * warps_per_tb) None;
    warps_per_tb;
    inflight = [];
    n_inflight = 0;
    next_wb = max_int;
    fetch_ptr = 0;
    fetch_mutated = false;
    greedy = Array.make cfg.Config.num_schedulers (-1);
    cycle = 0;
    bank_use = Array.make cfg.Config.rf_banks 0;
    sm_id;
    sink;
    attr = Obs.Attrib.create ();
    ledger;
    pcstat;
    series;
    issue_slots_used = 0;
    active_pc = -1;
    last_barrier_pc = -1;
    smem_replay_until = 0;
    smem_replay_pc = -1;
    dram_q = [];
    dram_patch = None;
    blame_pending = [];
    blame_cands = [];
    tbs_retired = 0;
    last_wb_cycle = 0;
    (* 1, not 0: the per-cycle watchdog's progress ref starts one
       compare behind the token (initialized to -1), so even a machine
       that never progresses is only charged idle from cycle 2 on — the
       same lag this seed reproduces in the barrier-time idle formula. *)
    last_progress = 1;
    progress_snapshot = 0;
  }

let pc_note t f = match t.pcstat with None -> () | Some p -> f p

let emit t ~warp kind =
  if Obs.Sink.enabled t.sink then
    Obs.Sink.emit t.sink
      { Obs.Event.cycle = t.cycle; sm = t.sm_id; warp; kind }

let can_accept t = Array.exists (fun s -> not s.occupied) t.slots

let launch_tb t ~tb_id ~traces =
  let slot_idx =
    let rec find i =
      if i >= Array.length t.slots then
        invalid_arg "Sm.launch_tb: no free slot"
      else if not t.slots.(i).occupied then i
      else find (i + 1)
    in
    find 0
  in
  let slot = t.slots.(slot_idx) in
  slot.occupied <- true;
  slot.tb_id <- tb_id;
  slot.inflight_ops <- 0;
  slot.barrier_release_at <- -1;
  slot.n_at_barrier <- 0;
  if Array.length traces > t.warps_per_tb then
    invalid_arg "Sm.launch_tb: threadblock has too many warps for this SM";
  let nregs = max t.kinfo.Kinfo.kernel.Darsie_isa.Kernel.nregs 1 in
  let warps =
    Array.init (Array.length traces) (fun w ->
        {
          Engine.wid = (slot_idx * t.warps_per_tb) + w;
          tb_slot = slot_idx;
          tb_id;
          warp_in_tb = w;
          trace = traces.(w);
          fi = 0;
          ibuf = Queue.create ();
          pending = Array.make nregs 0;
          pending_count = 0;
          at_barrier = false;
          finished = false;
          last_issued = 0;
          fetch_ready_at = 0;
          mem_inflight = 0;
          mshr_used = 0;
          fetch_ok = true;
          parked_at = -1;
          skip_stall = 0;
          drop_reason = 0;
          gave_up_at = -1;
        })
  in
  (* Independent eligible-occurrence count for the skip ledger: scan the
     installed traces once so the conservation check does not depend on
     the fetch-path bookkeeping it verifies. *)
  Array.iter
    (fun trace ->
      Array.iter
        (fun (op : Record.op) ->
          if t.kinfo.Kinfo.marked_eligible.(op.Record.idx) then
            Obs.Ledger.note_expected t.ledger ~pc:op.Record.idx)
        trace)
    traces;
  Array.iteri
    (fun w ctx -> t.warps.((slot_idx * t.warps_per_tb) + w) <- Some ctx)
    warps;
  for w = Array.length traces to t.warps_per_tb - 1 do
    t.warps.((slot_idx * t.warps_per_tb) + w) <- None
  done;
  emit t ~warp:tb_id Obs.Event.Tb_launch;
  t.engine.Engine.on_tb_launch ~tb_slot:slot_idx ~warps

let busy t =
  Array.exists (fun s -> s.occupied) t.slots || t.inflight <> []

let stats t = t.stats

let engine_name t = t.engine.Engine.name

let cycle t = t.cycle

let attribution t = t.attr

let ledger t = t.ledger

let pcstat t = t.pcstat

let skip_telemetry t = t.engine.Engine.pc_telemetry ()

let series t = t.series

let inflight_count t = t.n_inflight

(* Monotone counter that moves iff the pipeline did something this cycle:
   fetched, issued, dropped at issue or skipped pre-fetch. The watchdog
   declares deadlock when it freezes with nothing in flight. *)
let progress_token t =
  t.stats.Stats.fetched + t.stats.Stats.issued + t.stats.Stats.dropped_issue
  + t.stats.Stats.skipped_prefetch

let debug_state t = t.engine.Engine.debug_state ()

let warp_snapshots t =
  let base = ref [] in
  Array.iter
    (function
      | None -> ()
      | Some (w : Engine.wctx) ->
        let len = Array.length w.Engine.trace in
        let pc =
          if w.Engine.fi < len then w.Engine.trace.(w.Engine.fi).Record.idx
          else -1
        in
        let drained = Engine.warp_done w && Queue.is_empty w.Engine.ibuf in
        let state =
          if drained && w.Engine.pending_count = 0 then "finished"
          else if w.Engine.at_barrier then "at_barrier"
          else if Queue.is_empty w.Engine.ibuf && not (t.engine.Engine.can_fetch w)
          then "fetch_gated"
          else "runnable"
        in
        let snap =
          {
            Darsie_check.Sim_error.ws_sm = t.sm_id;
            ws_warp = w.Engine.wid;
            ws_tb = w.Engine.tb_id;
            ws_pc = pc;
            ws_state = state;
            ws_detail =
              Printf.sprintf "trace %d/%d, ibuf %d, pending %d" w.Engine.fi
                len
                (Queue.length w.Engine.ibuf)
                w.Engine.pending_count;
          }
        in
        base := snap :: !base)
    t.warps;
  List.rev !base

(* Flush the trailing partial sampling interval (no-op when the run ended
   exactly on a boundary, or when sampling is off), and fold the engine's
   per-PC skip telemetry into the profile: DARSIE advances trace cursors
   inside its own skip phase, so those eliminations never pass through
   the fetch stage the SM instruments. *)
let finalize t =
  (match t.series with
  | Some s -> Obs.Series.record s ~cycle:t.cycle (sample_snapshot t.stats)
  | None -> ());
  pc_note t (fun p ->
      List.iter
        (fun (pc, (e : Obs.Pcstat.skip_entry)) ->
          Obs.Pcstat.note_skips p ~pc e.Obs.Pcstat.sk_hits)
        (skip_telemetry t))

(* A warp has issued everything when its trace cursor is exhausted and its
   I-buffer has drained. *)
let warp_drained (w : Engine.wctx) =
  Engine.warp_done w && Queue.is_empty w.Engine.ibuf

let popcount m =
  let rec go m acc = if m = 0 then acc else go (m lsr 1) (acc + (m land 1)) in
  go m 0

(* ------------------------------------------------------------------ *)
(* Writeback                                                           *)
(* ------------------------------------------------------------------ *)

let is_mem_class t idx =
  match t.kinfo.Kinfo.unit_of.(idx) with
  | Kinfo.Mem_global | Kinfo.Mem_shared -> true
  | Kinfo.Alu | Kinfo.Sfu | Kinfo.Ctrl -> false

(* Record one operation entering the pipeline between issue and
   writeback; every insertion site must go through here so the
   maintained counters ([n_inflight], [next_wb], per-warp
   [mem_inflight], [mshr_used]) stay consistent with the list.
   [mshrs] is the number of MSHR entries the op allocated (missed
   lines of a gated global load; 0 everywhere else). *)
let add_inflight ?(mshrs = 0) t (w : Engine.wctx) op ~finish =
  t.inflight <- { fly_warp = w; fly_op = op; finish; fly_mshrs = mshrs }
                :: t.inflight;
  t.n_inflight <- t.n_inflight + 1;
  if finish < t.next_wb then t.next_wb <- finish;
  if mshrs > 0 then w.Engine.mshr_used <- w.Engine.mshr_used + mshrs;
  if is_mem_class t op.Record.idx then
    w.Engine.mem_inflight <- w.Engine.mem_inflight + 1

let writeback t =
  if t.next_wb <= t.cycle then begin
    (* [next_wb] is the minimum pending finish, so entering here means at
       least one operation completes this cycle. *)
    t.last_wb_cycle <- t.cycle;
    let stats = t.stats in
    let still = ref [] in
    let nwb = ref max_int in
    List.iter
      (fun f ->
        if f.finish <= t.cycle then begin
          let w = f.fly_warp in
          (match t.kinfo.Kinfo.dst_reg.(f.fly_op.Record.idx) with
          | Some d ->
            w.Engine.pending.(d) <- w.Engine.pending.(d) - 1;
            w.Engine.pending_count <- w.Engine.pending_count - 1;
            stats.Stats.rf_writes <- stats.Stats.rf_writes + 1
          | None -> ());
          t.slots.(w.Engine.tb_slot).inflight_ops <-
            t.slots.(w.Engine.tb_slot).inflight_ops - 1;
          t.n_inflight <- t.n_inflight - 1;
          if f.fly_mshrs > 0 then
            w.Engine.mshr_used <- w.Engine.mshr_used - f.fly_mshrs;
          if is_mem_class t f.fly_op.Record.idx then
            w.Engine.mem_inflight <- w.Engine.mem_inflight - 1;
          t.engine.Engine.on_writeback ~cycle:t.cycle w f.fly_op
        end
        else begin
          if f.finish < !nwb then nwb := f.finish;
          still := f :: !still
        end)
      t.inflight;
    t.inflight <- !still;
    t.next_wb <- !nwb
  end

(* ------------------------------------------------------------------ *)
(* Barrier release and TB retirement                                   *)
(* ------------------------------------------------------------------ *)

(* Barrier presence is tracked incrementally: [slot.n_at_barrier] is
   bumped when a Ctrl issue parks a warp at a barrier and zeroed on
   release and TB launch, so the per-cycle scans the old code did are a
   single integer test. Debug builds cross-check the counter against a
   recount. *)
let count_at_barrier t slot_idx =
  let base = slot_idx * t.warps_per_tb in
  let n = ref 0 in
  for k = 0 to t.warps_per_tb - 1 do
    match t.warps.(base + k) with
    | Some w when w.Engine.at_barrier -> incr n
    | _ -> ()
  done;
  !n

let barriers_and_retirement t =
  let wpt = t.warps_per_tb in
  for slot_idx = 0 to Array.length t.slots - 1 do
    let slot = t.slots.(slot_idx) in
    if slot.occupied then begin
      let base = slot_idx * wpt in
      assert (slot.n_at_barrier = count_at_barrier t slot_idx);
      if slot.n_at_barrier > 0 then begin
        t.stats.Stats.barrier_stall_cycles <-
          t.stats.Stats.barrier_stall_cycles + slot.n_at_barrier;
        let all_arrived = ref true in
        for k = 0 to wpt - 1 do
          match t.warps.(base + k) with
          | Some w when (not w.Engine.at_barrier) && not (warp_drained w) ->
            all_arrived := false
          | _ -> ()
        done;
        (* The barrier network takes barrier_lat cycles from last-warp
           arrival to release. *)
        if !all_arrived && slot.barrier_release_at < 0 then
          slot.barrier_release_at <- t.cycle + t.cfg.Config.barrier_lat;
        if slot.barrier_release_at >= 0 && t.cycle >= slot.barrier_release_at
        then begin
          for k = 0 to wpt - 1 do
            match t.warps.(base + k) with
            | Some w -> w.Engine.at_barrier <- false
            | None -> ()
          done;
          slot.n_at_barrier <- 0;
          slot.barrier_release_at <- -1;
          emit t ~warp:slot_idx Obs.Event.Barrier_release
        end
      end;
      (* Retirement: all warps drained, nothing in flight, none parked
         at a barrier. *)
      if slot.inflight_ops = 0 && slot.n_at_barrier = 0 then begin
        let all_drained = ref true in
        for k = 0 to wpt - 1 do
          match t.warps.(base + k) with
          | Some w when not (warp_drained w) -> all_drained := false
          | _ -> ()
        done;
        if !all_drained then begin
          slot.occupied <- false;
          for k = 0 to wpt - 1 do
            t.warps.(base + k) <- None
          done;
          t.tbs_retired <- t.tbs_retired + 1;
          emit t ~warp:slot_idx Obs.Event.Tb_finish;
          t.engine.Engine.on_tb_finish ~tb_slot:slot_idx
        end
      end
    end
  done

(* ------------------------------------------------------------------ *)
(* Issue                                                               *)
(* ------------------------------------------------------------------ *)

(* Deterministic architectural register -> bank map; renamed (DARSIE)
   registers live in a strided region of the same banks, which is how
   follower reads create extra conflicts. *)
let bank_of t (w : Engine.wctx) reg =
  ((w.Engine.wid * t.kinfo.Kinfo.kernel.Darsie_isa.Kernel.nregs) + reg)
  mod t.cfg.Config.rf_banks

let scoreboard_ready (w : Engine.wctx) kinfo idx =
  let srcs = kinfo.Kinfo.src_regs.(idx) in
  List.for_all (fun r -> w.Engine.pending.(r) = 0) srcs
  &&
  match kinfo.Kinfo.dst_reg.(idx) with
  | Some d -> w.Engine.pending.(d) = 0
  | None -> true

type issue_budget = {
  mutable mem_left : int;
  mutable sfu_left : int;
}

(* Structural memory-limit gate for the head instruction at [idx] of
   warp [w]: true when a configured fidelity knob blocks issue this
   cycle — the shared port is still serializing a bank-conflict replay
   (smem_banks > 0), or a global load finds no free MSHR (mshrs > 0).
   Both knobs default to 0, making this a constant [false] and keeping
   the default model bit-identical. Cycles lost here are charged to the
   [Mem_struct] bucket by [classify_stall]. *)
let mem_struct_blocked t (w : Engine.wctx) idx =
  let cfg = t.cfg in
  match t.kinfo.Kinfo.unit_of.(idx) with
  | Kinfo.Mem_shared -> cfg.Config.smem_banks > 0 && t.cycle <= t.smem_replay_until
  | Kinfo.Mem_global ->
    cfg.Config.mshrs > 0
    && (not t.kinfo.Kinfo.is_store.(idx))
    && (not t.kinfo.Kinfo.is_atomic.(idx))
    && w.Engine.mshr_used >= cfg.Config.mshrs
  | Kinfo.Alu | Kinfo.Sfu | Kinfo.Ctrl -> false

(* One DRAM channel access from the issue stage. The request is queued
   locally (no cross-domain traffic) under a [max_int] placeholder
   completion, and the epoch barrier replays every SM's queue against
   the shared channel in canonical order ([commit_epoch]), patching the
   in-flight records. Sound because the epoch length is capped at
   [l1_lat + dram_lat]: a request issued inside an epoch finishes
   strictly after it, so no writeback falls due on a placeholder; the
   one other reader of completions, the stall blame, waits for the
   patch when a placeholder competes ([soonest]). *)
let dram_request t ~now ~ntxns =
  let req = { dq_now = now; dq_ntxns = ntxns; dq_fly = None } in
  t.dram_q <- req :: t.dram_q;
  t.dram_patch <- Some req;
  max_int

(* Issue one op from warp [w]; returns false if the head op cannot issue. *)
let try_issue_head t budget (w : Engine.wctx) =
  if w.Engine.at_barrier then false
  else
    match Queue.peek_opt w.Engine.ibuf with
    | None -> false
    | Some (op, fetch_cycle) ->
      let idx = op.Record.idx in
      let kinfo = t.kinfo in
      let unit_class = kinfo.Kinfo.unit_of.(idx) in
      let structural_ok =
        match unit_class with
        | Kinfo.Mem_global | Kinfo.Mem_shared -> budget.mem_left > 0
        | Kinfo.Sfu -> budget.sfu_left > 0
        | Kinfo.Alu | Kinfo.Ctrl -> true
      in
      (* operand collection: instructions reading registers need a free
         operand-collector unit *)
      let collector =
        if kinfo.Kinfo.nsrcs.(idx) = 0 then Some (-1)
        else begin
          let found = ref None in
          Array.iteri
            (fun u busy -> if !found = None && busy <= t.cycle then found := Some u)
            t.collectors;
          !found
        end
      in
      if fetch_cycle >= t.cycle || not structural_ok || collector = None
         || (not (scoreboard_ready w kinfo idx))
         || mem_struct_blocked t w idx
      then false
      else begin
        ignore (Queue.pop w.Engine.ibuf);
        let stats = t.stats in
        let cfg = t.cfg in
        let mshrs_alloc = ref 0 in
        w.Engine.last_issued <- t.cycle;
        t.issue_slots_used <- t.issue_slots_used + 1;
        if t.issue_slots_used = 1 then t.active_pc <- idx;
        (match t.engine.Engine.on_issue ~cycle:t.cycle w op with
        | Engine.Drop ->
          (* Eliminated at issue (UV): consumed fetch/decode and an issue
             slot but no execution resources; the reuse-buffer value is
             available to dependents next cycle. *)
          stats.Stats.dropped_issue <- stats.Stats.dropped_issue + 1;
          pc_note t (fun p -> Obs.Pcstat.note_drop p ~pc:idx);
          emit t ~warp:w.Engine.wid Obs.Event.Drop_at_issue;
          (match kinfo.Kinfo.shape.(idx) with
          | Darsie_compiler.Marking.Uniform ->
            stats.Stats.elim_uniform <- stats.Stats.elim_uniform + 1
          | Darsie_compiler.Marking.Affine ->
            stats.Stats.elim_affine <- stats.Stats.elim_affine + 1
          | Darsie_compiler.Marking.Unstructured | Darsie_compiler.Marking.Varying ->
            stats.Stats.elim_unstructured <- stats.Stats.elim_unstructured + 1);
          (match kinfo.Kinfo.dst_reg.(idx) with
          | Some d ->
            w.Engine.pending.(d) <- w.Engine.pending.(d) + 1;
            w.Engine.pending_count <- w.Engine.pending_count + 1;
            t.slots.(w.Engine.tb_slot).inflight_ops <-
              t.slots.(w.Engine.tb_slot).inflight_ops + 1;
            add_inflight t w op ~finish:(t.cycle + 1)
          | None -> ())
        | Engine.Execute ->
          stats.Stats.issued <- stats.Stats.issued + 1;
          pc_note t (fun p -> Obs.Pcstat.note_issue p ~pc:idx);
          stats.Stats.executed_threads <-
            stats.Stats.executed_threads + popcount op.Record.active;
          emit t ~warp:w.Engine.wid Obs.Event.Issue;
          (* Register file reads and bank conflicts. *)
          let conflicts = ref 0 in
          List.iter
            (fun r ->
              let b = bank_of t w r in
              if t.bank_use.(b) > 0 then incr conflicts;
              t.bank_use.(b) <- t.bank_use.(b) + 1;
              stats.Stats.rf_reads <- stats.Stats.rf_reads + 1)
            kinfo.Kinfo.src_regs.(idx);
          stats.Stats.rf_bank_conflicts <-
            stats.Stats.rf_bank_conflicts + !conflicts;
          (match collector with
          | Some u when u >= 0 -> t.collectors.(u) <- t.cycle + 2 + !conflicts
          | _ -> ());
          let finish =
            match unit_class with
            | Kinfo.Alu ->
              stats.Stats.alu_ops <- stats.Stats.alu_ops + 1;
              t.cycle + cfg.Config.alu_lat + !conflicts
            | Kinfo.Ctrl ->
              if kinfo.Kinfo.is_barrier.(idx) then w.Engine.at_barrier <- true
              else if kinfo.Kinfo.is_branch.(idx) && cfg.Config.sync_at_branches
              then w.Engine.at_barrier <- true;
              if w.Engine.at_barrier then begin
                (* the issue guard rejects warps already at a barrier, so
                   this transition is always false -> true *)
                t.slots.(w.Engine.tb_slot).n_at_barrier <-
                  t.slots.(w.Engine.tb_slot).n_at_barrier + 1;
                t.last_barrier_pc <- idx;
                emit t ~warp:w.Engine.wid Obs.Event.Barrier_arrive
              end;
              t.cycle + cfg.Config.alu_lat
            | Kinfo.Sfu ->
              budget.sfu_left <- budget.sfu_left - 1;
              stats.Stats.sfu_ops <- stats.Stats.sfu_ops + 1;
              t.cycle + cfg.Config.sfu_lat + !conflicts
            | Kinfo.Mem_shared ->
              budget.mem_left <- budget.mem_left - 1;
              stats.Stats.mem_ops <- stats.Stats.mem_ops + 1;
              emit t ~warp:w.Engine.wid Obs.Event.Mem_access;
              let banks =
                if cfg.Config.smem_banks > 0 then cfg.Config.smem_banks
                else cfg.Config.warp_size
              in
              let sc =
                Mem_model.shared_conflicts ~banks op.Record.accesses
              in
              stats.Stats.shared_accesses <-
                stats.Stats.shared_accesses + 1 + sc;
              stats.Stats.shared_bank_conflicts <-
                stats.Stats.shared_bank_conflicts + sc;
              (* Conflict replay: the shared port stays busy while the
                 [sc] replay passes serialize; the gate above keeps
                 further shared accesses out until it frees. *)
              if cfg.Config.smem_banks > 0 && sc > 0 then begin
                t.smem_replay_until <- t.cycle + sc;
                t.smem_replay_pc <- idx;
                stats.Stats.smem_replay_cycles <-
                  stats.Stats.smem_replay_cycles + sc
              end;
              t.cycle + cfg.Config.shared_lat + sc + !conflicts
            | Kinfo.Mem_global ->
              budget.mem_left <- budget.mem_left - 1;
              stats.Stats.mem_ops <- stats.Stats.mem_ops + 1;
              emit t ~warp:w.Engine.wid Obs.Event.Mem_access;
              let lines =
                Mem_model.coalesce ~line_bytes:cfg.Config.l1_line
                  op.Record.accesses
              in
              let nlines = List.length lines in
              if kinfo.Kinfo.is_atomic.(idx) then begin
                (* Atomics bypass the L1 and serialize at DRAM. *)
                t.engine.Engine.on_store ~atomic:true w;
                stats.Stats.dram_transactions <-
                  stats.Stats.dram_transactions + nlines;
                emit t ~warp:w.Engine.wid Obs.Event.Dram_txn;
                dram_request t ~now:(t.cycle + cfg.Config.l1_lat) ~ntxns:nlines
              end
              else if kinfo.Kinfo.is_store.(idx) then begin
                (* Write-through, no-allocate: stores drain to DRAM and do
                   not stall the pipeline. *)
                t.engine.Engine.on_store ~atomic:false w;
                stats.Stats.l1_accesses <- stats.Stats.l1_accesses + nlines;
                stats.Stats.dram_transactions <-
                  stats.Stats.dram_transactions + nlines;
                emit t ~warp:w.Engine.wid Obs.Event.Dram_txn;
                ignore
                  (dram_request t ~now:(t.cycle + cfg.Config.l1_lat)
                     ~ntxns:nlines);
                (* the store's own finish is latency-independent of DRAM;
                   the queued request only matters for channel ordering *)
                t.dram_patch <- None;
                t.cycle + cfg.Config.alu_lat
              end
              else begin
                stats.Stats.l1_accesses <- stats.Stats.l1_accesses + nlines;
                let misses =
                  List.fold_left
                    (fun acc line ->
                      if Mem_model.L1.access t.l1 line then acc else acc + 1)
                    0 lines
                in
                stats.Stats.l1_misses <- stats.Stats.l1_misses + misses;
                if misses = 0 then
                  t.cycle + cfg.Config.l1_lat + nlines - 1 + !conflicts
                else begin
                  (* the gate guaranteed at least one free MSHR; the
                     load allocates one per missed line, released at
                     writeback *)
                  if cfg.Config.mshrs > 0 then mshrs_alloc := misses;
                  stats.Stats.dram_transactions <-
                    stats.Stats.dram_transactions + misses;
                  emit t ~warp:w.Engine.wid Obs.Event.L1_miss;
                  emit t ~warp:w.Engine.wid Obs.Event.Dram_txn;
                  dram_request t ~now:(t.cycle + cfg.Config.l1_lat)
                    ~ntxns:misses
                end
              end
          in
          (* a DRAM round trip's latency is noted when [commit_epoch]
             patches its real completion in *)
          (match unit_class with
          | (Kinfo.Mem_global | Kinfo.Mem_shared) when t.dram_patch = None ->
            pc_note t (fun p ->
                Obs.Pcstat.note_mem_latency p ~pc:idx ~lat:(finish - t.cycle))
          | _ -> ());
          (* Track every executed op for TB retirement; register release
             happens at writeback only for ops that write one. *)
          (match kinfo.Kinfo.dst_reg.(idx) with
          | Some d ->
            w.Engine.pending.(d) <- w.Engine.pending.(d) + 1;
            w.Engine.pending_count <- w.Engine.pending_count + 1
          | None -> ());
          t.slots.(w.Engine.tb_slot).inflight_ops <-
            t.slots.(w.Engine.tb_slot).inflight_ops + 1;
          add_inflight ~mshrs:!mshrs_alloc t w op ~finish;
          (* Deferred DRAM: bind the queued request to the in-flight
             record just consed so [commit_epoch] can patch its real
             completion cycle in. *)
          (match t.dram_patch with
          | Some req ->
            req.dq_fly <- Some (List.hd t.inflight);
            t.dram_patch <- None
          | None -> ()));
        true
      end

(* Candidates: warps with an issueable head. Top-level (not a per-cycle
   closure) so the issue stage allocates nothing on the steady path. *)
let issueable t wid =
  match t.warps.(wid) with
  | Some w when not w.Engine.at_barrier -> (
    match Queue.peek_opt w.Engine.ibuf with
    | Some (op, fc) ->
      fc < t.cycle
      && scoreboard_ready w t.kinfo op.Record.idx
      (* structural memory gates (MSHR / replay port) hide the warp from
         the schedulers so GTO moves on instead of sticking to it *)
      && not (mem_struct_blocked t w op.Record.idx)
    | None -> false)
  | _ -> false

let pick_warp t sched =
  let cfg = t.cfg in
  let nw = Array.length t.warps in
  match cfg.Config.scheduler with
  | Config.Gto ->
    (* Greedy-then-oldest: stick with the last warp this scheduler
       issued from; otherwise take the lowest warp slot (oldest TB). *)
    let g = t.greedy.(sched) in
    if g >= 0 && g mod cfg.Config.num_schedulers = sched && issueable t g
    then g
    else begin
      let found = ref (-1) in
      let wid = ref sched in
      while !found < 0 && !wid < nw do
        if issueable t !wid then found := !wid;
        wid := !wid + cfg.Config.num_schedulers
      done;
      !found
    end
  | Config.Lrr ->
    (* Loose round robin: resume scanning after the last pick. *)
    let per_sched =
      (nw + cfg.Config.num_schedulers - 1) / cfg.Config.num_schedulers
    in
    let last = t.greedy.(sched) in
    let start =
      if last >= 0 then ((last - sched) / cfg.Config.num_schedulers) + 1
      else 0
    in
    let found = ref (-1) in
    let k = ref 0 in
    while !found < 0 && !k < per_sched do
      let slot = (start + !k) mod per_sched in
      let wid = sched + (slot * cfg.Config.num_schedulers) in
      if wid < nw && issueable t wid then found := wid;
      incr k
    done;
    !found

let issue t =
  Array.fill t.bank_use 0 (Array.length t.bank_use) 0;
  let cfg = t.cfg in
  let budget =
    { mem_left = cfg.Config.mem_per_cycle; sfu_left = cfg.Config.sfu_per_cycle }
  in
  for sched = 0 to cfg.Config.num_schedulers - 1 do
    match pick_warp t sched with
    | -1 -> t.greedy.(sched) <- -1
    | wid ->
      t.greedy.(sched) <- wid;
      (match t.warps.(wid) with
      | None -> ()
      | Some w ->
        let issued = ref 0 in
        while
          !issued < cfg.Config.issue_per_scheduler && try_issue_head t budget w
        do
          incr issued
        done)
  done

(* ------------------------------------------------------------------ *)
(* Fetch                                                               *)
(* ------------------------------------------------------------------ *)

(* Skip-ledger fate of one eligible occurrence passing the fetch slot.
   Launch-time demotion (CR whose xdim condition failed) is decided here
   from static information; everything else is the engine's story. An
   occurrence the engine removed or skipped pre-fetch never reaches this
   point — those fates are recorded at the elimination site. *)
let note_exec_fate t (w : Engine.wctx) (op : Record.op) =
  let idx = op.Record.idx in
  if t.kinfo.Kinfo.marked_eligible.(idx) then
    let fate =
      if not t.kinfo.Kinfo.tb_redundant.(idx) then Obs.Ledger.Demoted_at_launch
      else t.engine.Engine.exec_fate w op
    in
    Obs.Ledger.note t.ledger ~pc:idx fate

let fetch t =
  let cfg = t.cfg in
  t.fetch_mutated <- false;
  let nw = Array.length t.warps in
  if nw = 0 then ()
  else begin
    let fetched = ref 0 and scanned = ref 0 in
    let ptr = ref t.fetch_ptr in
    while !fetched < cfg.Config.fetch_width && !scanned < nw do
      (match t.warps.(!ptr mod nw) with
      | Some w
        when (not w.Engine.finished)
             && (not w.Engine.at_barrier)
             && t.cycle >= w.Engine.fetch_ready_at
             && Queue.length w.Engine.ibuf < cfg.Config.ibuf_depth
             && (not (Engine.warp_done w))
             && t.engine.Engine.can_fetch w -> begin
        (* Fetch a bundle of up to [issue_width] sequential instructions
           from the selected warp in this one cycle (dual-issue
           superscalar fetch at 2). Every bundle slot independently
           re-runs the zero-cost removal loop and re-consults the
           engine's fetch gate, so a leader the engine skipped or
           removed can pair with its follower; an I-cache miss or a
           full I-buffer ends the bundle. The warp consumes one
           [fetch_width] slot regardless of bundle fill. *)
        let slot_used = ref false in
        let bundle_left = ref cfg.Config.issue_width in
        let continue_slot = ref true in
        while !continue_slot do
          continue_slot := false;
          (* Zero-cost stream removal (DAC-IDEAL). *)
          let continue_removing = ref true in
          while !continue_removing do
            match Engine.next_op w with
            | Some op when t.engine.Engine.remove_at_fetch w op ->
              t.fetch_mutated <- true;
              if t.kinfo.Kinfo.marked_eligible.(op.Record.idx) then
                Obs.Ledger.note t.ledger ~pc:op.Record.idx Obs.Ledger.Skipped;
              w.Engine.fi <- w.Engine.fi + 1;
              t.stats.Stats.skipped_prefetch <-
                t.stats.Stats.skipped_prefetch + 1;
              pc_note t (fun p -> Obs.Pcstat.note_skip p ~pc:op.Record.idx);
              emit t ~warp:w.Engine.wid Obs.Event.Skip_prefetch;
              (match t.kinfo.Kinfo.shape.(op.Record.idx) with
              | Darsie_compiler.Marking.Uniform ->
                t.stats.Stats.elim_uniform <- t.stats.Stats.elim_uniform + 1
              | Darsie_compiler.Marking.Affine ->
                t.stats.Stats.elim_affine <- t.stats.Stats.elim_affine + 1
              | Darsie_compiler.Marking.Unstructured
              | Darsie_compiler.Marking.Varying ->
                t.stats.Stats.elim_unstructured <-
                  t.stats.Stats.elim_unstructured + 1)
            | _ -> continue_removing := false
          done;
          match Engine.next_op w with
          | Some op ->
            if not !slot_used then begin
              slot_used := true;
              incr fetched
            end;
            t.fetch_mutated <- true;
            let pc = Darsie_isa.Kernel.pc_of_index op.Record.idx in
            if Mem_model.L1.access t.icache pc then begin
              t.stats.Stats.fetched <- t.stats.Stats.fetched + 1;
              pc_note t (fun p -> Obs.Pcstat.note_fetch p ~pc:op.Record.idx);
              emit t ~warp:w.Engine.wid Obs.Event.Fetch;
              note_exec_fate t w op;
              Queue.push (op, t.cycle) w.Engine.ibuf;
              w.Engine.fi <- w.Engine.fi + 1;
              decr bundle_left;
              if
                !bundle_left > 0
                && Queue.length w.Engine.ibuf < cfg.Config.ibuf_depth
                && (not (Engine.warp_done w))
                (* [can_fetch] is stale once [fi] moved: the follower
                   slot must re-consult the engine at the new cursor, or
                   a warp could fetch past a branch sync it never
                   arrived at. *)
                && t.engine.Engine.recheck_fetch w
              then continue_slot := true
            end
            else begin
              (* I-cache miss: the line fills and the warp refetches *)
              t.stats.Stats.icache_misses <- t.stats.Stats.icache_misses + 1;
              emit t ~warp:w.Engine.wid Obs.Event.Icache_miss;
              w.Engine.fetch_ready_at <- t.cycle + cfg.Config.icache_miss_lat
            end
          | None -> ()
        done;
        if !slot_used then t.fetch_ptr <- (!ptr + 1) mod nw
      end
      | _ -> ());
      incr ptr;
      incr scanned
    done;
    if !fetched = 0 then
      t.stats.Stats.fetch_stall_cycles <- t.stats.Stats.fetch_stall_cycles + 1
  end

(* ------------------------------------------------------------------ *)
(* Stall-cycle attribution                                             *)
(* ------------------------------------------------------------------ *)

(* The blame rule over the [blamable] records of [inflight]: the PC of
   the one finishing soonest, -1 when nothing qualifies. Ties on the
   finish cycle break toward the lower PC so the blame is independent of
   the list's order — a requirement for fast-forward bit-identity, since
   the stepped path rebuilds (and reorders) the list per cycle. When a
   DRAM request still carrying its epoch placeholder competes with
   another candidate the winner is not known yet: [deferred_pc]. *)
let deferred_pc = -2

let soonest ~blamable inflight =
  let best_fin = ref max_int and best_pc = ref (-1) in
  let n = ref 0 and placeholder = ref false in
  List.iter
    (fun f ->
      if blamable f then begin
        incr n;
        if f.finish = max_int then placeholder := true;
        let pc = f.fly_op.Record.idx in
        if
          f.finish < !best_fin
          || (f.finish = !best_fin && (pc < !best_pc || !best_pc < 0))
        then begin
          best_fin := f.finish;
          best_pc := pc
        end
      end)
    inflight;
  if !placeholder && !n > 1 then deferred_pc else !best_pc

(* PC of the in-flight memory op finishing soonest for warp [w] (or of
   any op when [w] is [None]); the instruction a memory-bound cycle is
   most fairly blamed on. A [deferred_pc] result leaves its candidates
   in [blame_cands] for the charge site. *)
let nearest_inflight_pc ?w t =
  let blamable f =
    match w with
    | None -> true
    | Some w -> f.fly_warp == w && is_mem_class t f.fly_op.Record.idx
  in
  let pc = soonest ~blamable t.inflight in
  if pc = deferred_pc && t.pcstat <> None then
    t.blame_cands <- List.filter blamable t.inflight;
  pc

(* Charge [n] cycles of [bucket] to the blamed PC in the per-PC profile,
   or hold them for [commit_epoch] when the blame is deferred. *)
let charge_pc t bucket pc n =
  pc_note t (fun p ->
      if pc = deferred_pc then
        t.blame_pending <- (bucket, n, t.blame_cands) :: t.blame_pending
      else Obs.Pcstat.charge_n p ~pc bucket ~n)

let head_pc (w : Engine.wctx) =
  match Queue.peek_opt w.Engine.ibuf with
  | Some (op, _) -> op.Record.idx
  | None -> -1

let next_pc (w : Engine.wctx) =
  match Engine.next_op w with Some op -> op.Record.idx | None -> -1

(* Classify one cycle into exactly one Attrib bucket, and name the static
   instruction blocking progress (-1 = the none-row). Called at the end
   of [step], so "aged" I-buffer heads (fetch_cycle < cycle) are exactly
   the ones the issue stage considered and rejected this cycle. Pcstat
   and Attrib are both fed from this single result, which is what makes
   the per-PC table conservative by construction. *)
(* The non-issuing-cycle half of the classification, shared by [step]
   and the fast-forward bulk charge. Allocation-free: the old list
   builds ([runnable], [aged_blocked]) are replaced by direct scans over
   the warp array in the same order, so the chosen bucket and blocking
   PC are identical. *)
let classify_stall t =
  let nw = Array.length t.warps in
  let any_runnable = ref false in
  let all_barrier = ref true in
  let first_nonbarrier = ref (-1) in
  for i = 0 to nw - 1 do
    match t.warps.(i) with
    | Some w when not (warp_drained w) ->
      any_runnable := true;
      if not w.Engine.at_barrier then begin
        all_barrier := false;
        if !first_nonbarrier < 0 then first_nonbarrier := i
      end
    | _ -> ()
  done;
  if not !any_runnable then
    if t.inflight <> [] then (Obs.Attrib.Mem_pending, nearest_inflight_pc t)
    else (Obs.Attrib.Idle, -1)
  else if !all_barrier then (Obs.Attrib.Barrier, t.last_barrier_pc)
  else begin
    (* Warps whose head instruction was old enough to issue but did not:
       operand (scoreboard) or issue-resource blocked. *)
    let first_aged = ref (-1) in
    let i = ref 0 in
    while !first_aged < 0 && !i < nw do
      (match t.warps.(!i) with
      | Some w when (not (warp_drained w)) && not w.Engine.at_barrier -> (
        match Queue.peek_opt w.Engine.ibuf with
        | Some (_, fc) when fc < t.cycle -> first_aged := !i
        | _ -> ())
      | _ -> ());
      incr i
    done;
    if !first_aged >= 0 then begin
      let mem_w = ref None in
      let i = ref !first_aged in
      while !mem_w = None && !i < nw do
        (match t.warps.(!i) with
        | Some w when (not (warp_drained w)) && not w.Engine.at_barrier -> (
          match Queue.peek_opt w.Engine.ibuf with
          | Some (op, fc)
            when fc < t.cycle
                 && (not (scoreboard_ready w t.kinfo op.Record.idx))
                 && w.Engine.mem_inflight > 0 ->
            mem_w := Some w
          | _ -> ())
        | _ -> ());
        incr i
      done;
      match !mem_w with
      | Some w -> (Obs.Attrib.Mem_pending, nearest_inflight_pc ~w t)
      | None ->
        (* Structural memory gates (fidelity knobs): an aged head that
           cleared the scoreboard but was held back by a full MSHR file
           or the busy shared replay port. The scan is skipped entirely
           at the default knob settings, where the gate is constant
           false, so the classification is unchanged. *)
        let struct_w = ref None in
        if t.cfg.Config.mshrs > 0 || t.cfg.Config.smem_banks > 0 then begin
          let i = ref !first_aged in
          while !struct_w = None && !i < nw do
            (match t.warps.(!i) with
            | Some w when (not (warp_drained w)) && not w.Engine.at_barrier -> (
              match Queue.peek_opt w.Engine.ibuf with
              | Some (op, fc)
                when fc < t.cycle
                     && scoreboard_ready w t.kinfo op.Record.idx
                     && mem_struct_blocked t w op.Record.idx ->
                struct_w := Some (w, op.Record.idx)
              | _ -> ())
            | _ -> ());
            incr i
          done
        end;
        (match !struct_w with
        | Some (w, idx) ->
          (* blame the access occupying the port, or the nearest of the
             warp's own in-flight misses holding its MSHRs *)
          let pc =
            match t.kinfo.Kinfo.unit_of.(idx) with
            | Kinfo.Mem_shared -> t.smem_replay_pc
            | _ -> nearest_inflight_pc ~w t
          in
          (Obs.Attrib.Mem_struct, pc)
        | None ->
          let pc =
            match t.warps.(!first_aged) with
            | Some w -> head_pc w
            | None -> -1
          in
          (Obs.Attrib.Scoreboard, pc))
    end
    else begin
      let gated = ref None in
      let i = ref 0 in
      while !gated = None && !i < nw do
        (match t.warps.(!i) with
        | Some w
          when (not (warp_drained w))
               && (not w.Engine.at_barrier)
               && Queue.is_empty w.Engine.ibuf
               && not (t.engine.Engine.can_fetch w) ->
          gated := Some w
        | _ -> ());
        incr i
      done;
      match !gated with
      | Some w -> (Obs.Attrib.Darsie_sync, next_pc w)
      | None ->
        let pc =
          match t.warps.(!first_nonbarrier) with
          | Some w -> (match head_pc w with -1 -> next_pc w | p -> p)
          | None -> -1
        in
        (Obs.Attrib.Fetch_starved, pc)
    end
  end

let classify_cycle t =
  if t.issue_slots_used > 0 then (Obs.Attrib.Active, t.active_pc)
  else classify_stall t

let step t =
  t.cycle <- t.cycle + 1;
  t.stats.Stats.cycles <- t.cycle;
  t.issue_slots_used <- 0;
  writeback t;
  barriers_and_retirement t;
  issue t;
  if Obs.Sink.enabled t.sink then begin
    (* The engine's skip phase mutates counters internally; emit the
       per-cycle deltas as aggregate (warp = -1) events. *)
    let sp0 = t.stats.Stats.skipped_prefetch in
    let ds0 = t.stats.Stats.darsie_sync_stalls in
    t.engine.Engine.cycle_skip ~cycle:t.cycle;
    for _ = 1 to t.stats.Stats.skipped_prefetch - sp0 do
      emit t ~warp:(-1) Obs.Event.Skip_prefetch
    done;
    for _ = 1 to t.stats.Stats.darsie_sync_stalls - ds0 do
      emit t ~warp:(-1) Obs.Event.Darsie_sync_stall
    done
  end
  else t.engine.Engine.cycle_skip ~cycle:t.cycle;
  fetch t;
  let bucket, blocking_pc = classify_cycle t in
  Obs.Attrib.bump t.attr bucket;
  charge_pc t bucket blocking_pc 1;
  (* Watchdog bookkeeping: remember the last cycle this SM fetched,
     issued, dropped or skipped anything (mirrors a per-cycle global
     [progress_token] comparison). *)
  let tok = progress_token t in
  if tok <> t.progress_snapshot then begin
    t.progress_snapshot <- tok;
    t.last_progress <- t.cycle
  end;
  match t.series with
  | Some s when Obs.Series.boundary s ~cycle:t.cycle ->
    Obs.Series.record s ~cycle:t.cycle (sample_snapshot t.stats)
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Event-driven fast-forwarding                                        *)
(* ------------------------------------------------------------------ *)

(* Earliest future cycle at which stepping this SM could do anything
   observable, evaluated between two [step] calls. [max_int] means "no
   event will ever fire here" (an idle or deadlocked SM — the cycle loop
   fast-forwards it, and the watchdog judges the frozen span). The
   computation is
   deliberately conservative: any doubt returns [cycle + 1], which just
   disables jumping for a cycle. Sources:

   - the engine's skip phase was not steady last cycle (it must keep
     running every cycle), or this cycle's fetch advanced a warp after
     the skip phase ran and made its [skip_steady] snapshot stale;
   - the earliest pending writeback ([next_wb]);
   - barrier machinery: a pending release fires at [barrier_release_at];
     a fully-arrived barrier whose timer is not armed yet arms it next
     step; TB retirement (and thus a possible TB launch) happens next
     step once everything drained;
   - a warp whose I-buffer head clears the scoreboard can issue next
     cycle (structural/collector limits are ignored — conservative);
   - a fetch-capable warp wakes at [fetch_ready_at] (I-cache miss fill);
   - the next time-series sampling boundary, so interval records always
     come from a normally-stepped cycle. *)
let next_event_cycle t =
  (* Jumping needs the engine's last skip phase to have been steady —
     a pure per-cycle accumulation over frozen state, which repeats
     identically across the span and is charged by [Engine.bulk_skip].
     (Frozen stat counters are not enough: a skip phase can mutate
     state, e.g. release a branch sync, without moving any stat
     counter.) The flag reflects a phase that ran before this cycle's
     fetch; when the skip phase inspects warp state, a fetch mutates
     state it has not seen, so a fetch forces one more normal step. *)
  if
    (not (t.engine.Engine.skip_steady ()))
    || (t.fetch_mutated && t.engine.Engine.skip_reads_warp_state)
  then
    if busy t then t.cycle + 1 else max_int
  else begin
    let now1 = t.cycle + 1 in
    let wake = ref max_int in
    let note c = if c < !wake then wake := c in
    if t.inflight <> [] then note (max now1 t.next_wb);
    (* Fidelity-knob event sources. MSHR entries free at writeback, so
       their releases ride on [next_wb] above. The shared replay port
       frees the cycle after [smem_replay_until]; noting it bounds any
       jump at the port release. (A head blocked by either gate is
       scoreboard-ready, so the per-warp issue-side source below already
       pins the wake to [now1] whenever a warp is actually waiting —
       this source only matters when the port drains unobserved.) *)
    if t.smem_replay_until > t.cycle then
      note (max now1 (t.smem_replay_until + 1));
    let wpt = t.warps_per_tb in
    Array.iteri
      (fun slot_idx slot ->
        if slot.occupied && !wake > now1 then begin
          let base = slot_idx * wpt in
          let all_drained = ref true in
          let all_arrived = ref true in
          (* Once the wake is [now1] no later source can improve it; the
             remaining per-warp checks (and, harmlessly, the barrier and
             retirement notes below, which can only yield >= now1) are
             skipped. *)
          let k = ref 0 in
          while !k < wpt && !wake > now1 do
            (match t.warps.(base + !k) with
            | None -> ()
            | Some w ->
              let drained = warp_drained w in
              if not drained then begin
                all_drained := false;
                if not w.Engine.at_barrier then begin
                  all_arrived := false;
                  (* issue side: every buffered head is aged by the next
                     cycle, so a scoreboard-ready head can issue then *)
                  (match Queue.peek_opt w.Engine.ibuf with
                  | Some (op, _) ->
                    if scoreboard_ready w t.kinfo op.Record.idx then
                      note now1
                  | None -> ());
                  (* fetch side *)
                  if
                    !wake > now1
                    && Queue.length w.Engine.ibuf < t.cfg.Config.ibuf_depth
                    && (not (Engine.warp_done w))
                    && t.engine.Engine.can_fetch w
                  then note (max now1 w.Engine.fetch_ready_at)
                end
              end);
            incr k
          done;
          if slot.n_at_barrier > 0 then begin
            if slot.barrier_release_at >= 0 then
              note (max now1 slot.barrier_release_at)
            else if !all_arrived then note now1
          end
          else if slot.inflight_ops = 0 && !all_drained then
            (* retirement pending: the next step frees the slot and may
               trigger a TB launch *)
            note now1
        end)
      t.slots;
    (match t.series with
    | Some s ->
      let interval = Obs.Series.interval s in
      note (((t.cycle / interval) + 1) * interval)
    | None -> ());
    !wake
  end

(* Jump the clock to [to_], bulk-charging the skipped span exactly as
   stepping it would have: the stall classification is evaluated once at
   the first skipped cycle (with no events due before [to_ + 1], the SM
   state — and therefore the classification — is frozen across the
   span), then multiplied into the Attrib bucket, the per-PC charge and
   the per-cycle stall counters. Keeps [Gpu.check_attribution] true by
   construction: span cycles, span bucket charges, span per-PC charges. *)
let fast_forward t ~to_ =
  let span = to_ - t.cycle in
  if span > 0 then begin
    let landing = t.cycle in
    t.cycle <- landing + 1;
    let bucket, blocking_pc = classify_stall t in
    t.cycle <- to_;
    t.stats.Stats.cycles <- to_;
    Obs.Attrib.bump_n t.attr bucket span;
    charge_pc t bucket blocking_pc span;
    (* the stepped path bumps these once per no-progress cycle *)
    if Array.length t.warps > 0 then
      t.stats.Stats.fetch_stall_cycles <-
        t.stats.Stats.fetch_stall_cycles + span;
    Array.iter
      (fun slot ->
        if slot.occupied && slot.n_at_barrier > 0 then
          t.stats.Stats.barrier_stall_cycles <-
            t.stats.Stats.barrier_stall_cycles + (span * slot.n_at_barrier))
      t.slots;
    (* Every skipped cycle is issue-less, and the stepped path resets
       each scheduler's greedy pick on issue-less cycles: without this
       a stale greedy warp would beat a lower, equally-ready warp out
       of the post-landing scan order and reorder issues vs stepping. *)
    Array.fill t.greedy 0 (Array.length t.greedy) (-1);
    (* the engine's skip phase would have run once per skipped cycle *)
    t.engine.Engine.bulk_skip ~cycle:to_ ~n:span;
    t.engine.Engine.on_fast_forward ~cycle:to_;
    (* bulk_skip can advance the skip counters, which the watchdog
       counts as progress at the landing cycle *)
    let tok = progress_token t in
    if tok <> t.progress_snapshot then begin
      t.progress_snapshot <- tok;
      t.last_progress <- to_
    end
  end

(* ------------------------------------------------------------------ *)
(* Epoch-batched DRAM commit                                           *)
(* ------------------------------------------------------------------ *)

let tbs_retired t = t.tbs_retired
let last_wb_cycle t = t.last_wb_cycle
let last_progress t = t.last_progress

(* Replay every SM's deferred DRAM requests against the real channel in
   canonical order and patch the placeholder completions. Stepping SMs
   cycle by cycle in SM-index order, the shared channel would observe
   requests ordered by (issue cycle, SM index, per-SM issue sequence).
   Each deferred request carries [dq_now] = issue cycle + l1_lat — the
   same constant offset for every site — so sorting by [dq_now] recovers
   the cycle order, a stable sort over the sm_id-ordered concatenation
   breaks ties by SM index, and each per-SM queue is already in issue
   order (reversed from the cons list). With the real completions known,
   the per-PC profile receives each patched load's latency and the stall
   charges whose blame waited on them. Returns the number of requests
   replayed (for telemetry). *)
let commit_epoch ~dram sms =
  let runs = ref [] in
  Array.iter
    (fun t ->
      if t.dram_q <> [] then begin
        (* cons list -> issue order *)
        runs := (t, List.rev t.dram_q) :: !runs;
        t.dram_q <- []
      end)
    sms;
  let runs = List.rev !runs in
  (* sm_id-ordered concatenation of issue-ordered runs *)
  let reqs = List.concat_map snd runs in
  match reqs with
  | [] -> 0
  | _ ->
    let ordered =
      List.stable_sort (fun a b -> compare (a.dq_now : int) b.dq_now) reqs
    in
    List.iter
      (fun req ->
        let finish = Mem_model.Dram.request dram ~now:req.dq_now ~ntxns:req.dq_ntxns in
        match req.dq_fly with
        | Some fly -> fly.finish <- finish
        | None -> ())
      ordered;
    List.iter
      (fun (t, reqs) ->
        pc_note t (fun p ->
            List.iter
              (fun req ->
                match req.dq_fly with
                | Some fly ->
                  let issued = req.dq_now - t.cfg.Config.l1_lat in
                  Obs.Pcstat.note_mem_latency p ~pc:fly.fly_op.Record.idx
                    ~lat:(fly.finish - issued)
                | None -> ())
              reqs;
            List.iter
              (fun (bucket, n, cands) ->
                charge_pc t bucket (soonest ~blamable:(fun _ -> true) cands) n)
              t.blame_pending;
            t.blame_pending <- []);
        (* Placeholder finishes were [max_int], which never lowered
           [next_wb]; recompute it from the patched list. *)
        t.next_wb <-
          List.fold_left (fun acc f -> min acc f.finish) max_int t.inflight)
      runs;
    List.length ordered
