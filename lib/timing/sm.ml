open Darsie_trace
module Obs = Darsie_obs

type slot_state = {
  mutable occupied : bool;
  mutable inflight_ops : int;
  mutable barrier_release_at : int;  (* -1 when no release pending *)
  mutable n_at_barrier : int;  (* resident warps with at_barrier set *)
}

type t = {
  cfg : Config.t;
  kinfo : Kinfo.t;
  stats : Stats.t;
  engine : Engine.t;
  l1 : Mem_model.L1.t;
  icache : Mem_model.L1.t;
  mem_scratch : Mem_model.scratch;
  collectors : int array;  (* per-unit busy-until cycle *)
  slots : slot_state array;
  warps : Engine.wctx option array;  (* wid = slot * warps_per_tb + lane *)
  warps_per_tb : int;
  (* The indexes the per-step stages walk instead of every slot: the
     occupied slot indices ([occ], [n_occ] of them) and the wids of the
     resident warps ([resident], [n_resident]), each ascending. Rebuilt
     by [reindex] wherever [slots] or [warps] change: [launch_tb], and
     [barriers_and_retirement] after a retirement. [check_derived]
     rebuilds both from scratch. *)
  occ : int array;
  mutable n_occ : int;
  resident : int array;
  mutable n_resident : int;
  (* The ops between issue and writeback, in a pool of stable slots: the
     [fly_*] arrays are indexed by slot, [live] lists the occupied slots
     in issue order and [free] stacks the others. A deferred DRAM
     request's op keeps a [max_int] placeholder finish until the epoch
     barrier patches the real completion in ([commit_epoch]). *)
  mutable fly_wid : int array;  (* issuing warp *)
  mutable fly_pos : int array;  (* the op's position in that warp's trace *)
  mutable fly_idx : int array;  (* its static instruction index *)
  mutable fly_finish : int array;
  mutable fly_mshrs : int array;  (* MSHR entries held until writeback *)
  mutable live : int array;
  mutable n_live : int;
  mutable free : int array;
  mutable n_free : int;
  mutable next_wb : int;  (* earliest live finish; max_int if none *)
  mutable fetch_ptr : int;
  (* True when this cycle's fetch phase advanced any warp (fi, ibuf or
     fetch_ready_at changed). Fetch runs after the engine's cycle_skip,
     so its [skip_steady] snapshot is stale whenever this is set. *)
  mutable fetch_mutated : bool;
  greedy : int array;  (* per scheduler: preferred wid, or -1 *)
  (* The ready bits: per wid, the warp-local part of the issue gate
     ([local_ready]), set and cleared where its inputs change
     ([update_ready]); per scheduler, how many of its warps have the bit
     set. [check_derived] recomputes both. *)
  ready : bool array;
  n_ready : int array;
  struct_gates : bool;  (* mshrs or smem_banks is on *)
  mutable cycle : int;
  bank_use : int array;  (* per-RF-bank reads scheduled this cycle *)
  sm_id : int;
  sink : Obs.Sink.t;
  attr : Obs.Attrib.t;
  ledger : Obs.Ledger.t;
  pcstat : Obs.Pcstat.t option;
  series : Obs.Series.t option;
  mutable issue_slots_used : int;  (* issues + drops this cycle *)
  mutable mem_left : int;  (* this cycle's memory issue budget *)
  mutable sfu_left : int;  (* this cycle's SFU issue budget *)
  mutable active_pc : int;  (* first PC issued/dropped this cycle *)
  mutable blamed_pc : int;  (* the PC [classify_stall] blamed *)
  mutable last_barrier_pc : int;  (* most recent barrier-setting PC *)
  (* Shared-memory bank-conflict replay port (smem_banks > 0): the port
     is busy serializing replays through [smem_replay_until], and
     [smem_replay_pc] names the occupying access for stall blame. Both
     stay at their initial values when the knob is off. *)
  mutable smem_replay_until : int;
  mutable smem_replay_pc : int;
  (* Epoch-loop bookkeeping. Issue-stage DRAM requests queue in [dq],
     three ints each in issue order (the [~now] the issue site would
     have passed, the transaction count, and the pool slot whose
     placeholder the replay patches, -1 for stores, whose pipeline
     latency does not depend on the channel), instead of reaching the
     shared channel; [dram_patch] indexes the slot cell between
     [dram_request] and the [add_inflight] that fills it. The remaining
     fields let the cycle loop reproduce per-cycle TB dispatch and the
     deadlock watchdog exactly: [tbs_retired] is a monotone retirement
     counter (a shard pauses at a retirement so the barrier can replay
     the dispatch scan), [last_wb_cycle] / [last_progress] timestamp the
     most recent writeback and progress-token movement. *)
  mutable dq : int array;
  mutable n_dq : int;
  mutable dram_patch : int;
  (* Per-PC stall charges (bucket, cycles, candidates) whose blamed
     instruction depends on a placeholder completion, resolved by
     [commit_epoch]; [blame_cands] carries the candidates from
     [nearest_inflight_pc] to the charge site, as (slot, finish, PC)
     triples. *)
  mutable blame_pending : (Obs.Attrib.bucket * int * int array) list;
  mutable blame_cands : int array;
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
    mem_scratch = Mem_model.scratch ();
    collectors = Array.make cfg.Config.collector_units 0;
    slots =
      Array.init slots (fun _ ->
          {
            occupied = false;
            inflight_ops = 0;
            barrier_release_at = -1;
            n_at_barrier = 0;
          });
    warps = Array.make (slots * warps_per_tb) None;
    warps_per_tb;
    occ = Array.make slots 0;
    n_occ = 0;
    resident = Array.make (slots * warps_per_tb) 0;
    n_resident = 0;
    fly_wid = [||];
    fly_pos = [||];
    fly_idx = [||];
    fly_finish = [||];
    fly_mshrs = [||];
    live = [||];
    n_live = 0;
    free = [||];
    n_free = 0;
    next_wb = max_int;
    fetch_ptr = 0;
    fetch_mutated = false;
    greedy = Array.make cfg.Config.num_schedulers (-1);
    ready = Array.make (slots * warps_per_tb) false;
    n_ready = Array.make cfg.Config.num_schedulers 0;
    struct_gates = cfg.Config.mshrs > 0 || cfg.Config.smem_banks > 0;
    cycle = 0;
    bank_use = Array.make cfg.Config.rf_banks 0;
    sm_id;
    sink;
    attr = Obs.Attrib.create ();
    ledger;
    pcstat;
    series;
    issue_slots_used = 0;
    mem_left = 0;
    sfu_left = 0;
    active_pc = -1;
    blamed_pc = -1;
    last_barrier_pc = -1;
    smem_replay_until = 0;
    smem_replay_pc = -1;
    dq = [||];
    n_dq = 0;
    dram_patch = -1;
    blame_pending = [];
    blame_cands = [||];
    tbs_retired = 0;
    last_wb_cycle = 0;
    (* 1, not 0: the per-cycle watchdog's progress ref starts one
       compare behind the token (initialized to -1), so even a machine
       that never progresses is only charged idle from cycle 2 on — the
       same lag this seed reproduces in the barrier-time idle formula. *)
    last_progress = 1;
    progress_snapshot = 0;
  }

let emit t ~warp kind =
  if Obs.Sink.enabled t.sink then
    Obs.Sink.emit t.sink
      { Obs.Event.cycle = t.cycle; sm = t.sm_id; warp; kind }

let can_accept t = t.n_occ < Array.length t.slots

(* Rebuild [occ] and [resident] from [slots] and [warps]. A warp is
   resident only in an occupied slot: launch fills the slot's unused
   lanes with [None], and retirement empties every lane. *)
let reindex t =
  let wpt = t.warps_per_tb in
  t.n_occ <- 0;
  t.n_resident <- 0;
  for s = 0 to Array.length t.slots - 1 do
    if t.slots.(s).occupied then begin
      t.occ.(t.n_occ) <- s;
      t.n_occ <- t.n_occ + 1;
      for wid = s * wpt to (s * wpt) + wpt - 1 do
        match t.warps.(wid) with
        | Some _ ->
          t.resident.(t.n_resident) <- wid;
          t.n_resident <- t.n_resident + 1
        | None -> ()
      done
    end
  done

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
          len = Record.length traces.(w);
          fi = 0;
          ib_pos = Array.make t.cfg.Config.ibuf_depth 0;
          ib_cycle = Array.make t.cfg.Config.ibuf_depth 0;
          ib_idx = Array.make t.cfg.Config.ibuf_depth 0;
          ib_head = 0;
          ib_count = 0;
          pending = Array.make nregs 0;
          pending_count = 0;
          at_barrier = false;
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
      for i = 0 to Record.length trace - 1 do
        let idx = Record.idx trace i in
        if t.kinfo.Kinfo.marked_eligible.(idx) then
          Obs.Ledger.note_expected t.ledger ~pc:idx
      done)
    traces;
  Array.iteri
    (fun w ctx -> t.warps.((slot_idx * t.warps_per_tb) + w) <- Some ctx)
    warps;
  for w = Array.length traces to t.warps_per_tb - 1 do
    t.warps.((slot_idx * t.warps_per_tb) + w) <- None
  done;
  reindex t;
  emit t ~warp:tb_id Obs.Event.Tb_launch;
  t.engine.Engine.on_tb_launch ~tb_slot:slot_idx ~warps

let busy t = t.n_occ > 0 || t.n_live > 0

let stats t = t.stats

let engine_name t = t.engine.Engine.name

let cycle t = t.cycle

let attribution t = t.attr

let ledger t = t.ledger

let pcstat t = t.pcstat

let skip_telemetry t = t.engine.Engine.pc_telemetry ()

let series t = t.series

let inflight_count t = t.n_live

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
        let len = w.Engine.len in
        let pc =
          if w.Engine.fi < len then Record.idx w.Engine.trace w.Engine.fi
          else -1
        in
        let drained = Engine.warp_done w && w.Engine.ib_count = 0 in
        let state =
          if drained && w.Engine.pending_count = 0 then "finished"
          else if w.Engine.at_barrier then "at_barrier"
          else if w.Engine.ib_count = 0 && not w.Engine.fetch_ok then
            "fetch_gated"
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
                len w.Engine.ib_count w.Engine.pending_count;
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
  match t.pcstat with
  | None -> ()
  | Some p ->
    List.iter
      (fun (pc, (e : Obs.Pcstat.skip_entry)) ->
        Obs.Pcstat.note_skips p ~pc e.Obs.Pcstat.sk_hits)
      (skip_telemetry t)

(* [Engine.warp_done], written here so the cycle loop's calls inline. *)
let warp_done (w : Engine.wctx) = w.Engine.fi >= w.Engine.len

(* A warp has issued everything when its trace cursor is exhausted and its
   I-buffer has drained. *)
let warp_drained (w : Engine.wctx) = warp_done w && w.Engine.ib_count = 0

(* The I-buffer ring of [Engine.wctx]: append a fetched op, drop the head. *)
let ib_push (w : Engine.wctx) ~pos ~cycle ~idx =
  let depth = Array.length w.Engine.ib_pos in
  let k = w.Engine.ib_head + w.Engine.ib_count in
  let k = if k >= depth then k - depth else k in
  w.Engine.ib_pos.(k) <- pos;
  w.Engine.ib_cycle.(k) <- cycle;
  w.Engine.ib_idx.(k) <- idx;
  w.Engine.ib_count <- w.Engine.ib_count + 1

let ib_pop (w : Engine.wctx) =
  let h = w.Engine.ib_head + 1 in
  w.Engine.ib_head <- (if h = Array.length w.Engine.ib_pos then 0 else h);
  w.Engine.ib_count <- w.Engine.ib_count - 1

(* Set bits of an active mask (at most 62 bits wide), in constant time. *)
let popcount m =
  let m = m - ((m lsr 1) land 0x1555_5555_5555_5555) in
  let m = (m land 0x3333_3333_3333_3333) + ((m lsr 2) land 0x3333_3333_3333_3333) in
  let m = (m + (m lsr 4)) land 0x0F0F_0F0F_0F0F_0F0F in
  (m * 0x0101_0101_0101_0101) lsr 56

(* No write is outstanding to the registers [srcs.(k)] onwards. *)
let rec srcs_ready pending srcs k =
  k = Array.length srcs
  || (pending.(srcs.(k)) = 0 && srcs_ready pending srcs (k + 1))

let scoreboard_ready (w : Engine.wctx) kinfo idx =
  srcs_ready w.Engine.pending kinfo.Kinfo.src_regs.(idx) 0
  &&
  match kinfo.Kinfo.dst_reg.(idx) with
  | Some d -> w.Engine.pending.(d) = 0
  | None -> true

(* The warp-local part of the issue gate: the warp is not parked at a
   barrier, and its I-buffer head clears the scoreboard. The head needs
   no aging test here: fetch runs after issue in a step and
   [fast_forward] never fetches, so every head the issue stage sees was
   fetched in an earlier cycle. *)
let local_ready t (w : Engine.wctx) =
  (not w.Engine.at_barrier)
  && w.Engine.ib_count > 0
  && scoreboard_ready w t.kinfo w.Engine.ib_idx.(w.Engine.ib_head)

(* Recompute [w]'s ready bit. Called wherever [local_ready]'s inputs
   change: a writeback of a register ([complete]), an issue or drop
   ([try_issue_head]), a fetch into an empty I-buffer ([fetch]) and a
   barrier release. TB launch and retirement need no call: a warp there
   has an empty I-buffer, so its bit is already clear. *)
let update_ready t (w : Engine.wctx) =
  let wid = w.Engine.wid in
  let r = local_ready t w in
  if r <> t.ready.(wid) then begin
    t.ready.(wid) <- r;
    let s = wid mod t.cfg.Config.num_schedulers in
    t.n_ready.(s) <- (if r then t.n_ready.(s) + 1 else t.n_ready.(s) - 1)
  end

let check_ready_bits t =
  let ns = t.cfg.Config.num_schedulers in
  let counts = Array.make ns 0 and bad = ref (-1) in
  for wid = Array.length t.warps - 1 downto 0 do
    let gate =
      match t.warps.(wid) with Some w -> local_ready t w | None -> false
    in
    if gate <> t.ready.(wid) then bad := wid;
    if t.ready.(wid) then counts.(wid mod ns) <- counts.(wid mod ns) + 1
  done;
  if !bad >= 0 then
    Error
      (Printf.sprintf "SM %d, cycle %d: warp %d has ready bit %b, issue gate %b"
         t.sm_id t.cycle !bad t.ready.(!bad) (not t.ready.(!bad)))
  else
    let rec sched s =
      if s = ns then Ok ()
      else if counts.(s) <> t.n_ready.(s) then
        Error
          (Printf.sprintf
             "SM %d, cycle %d: scheduler %d counts %d ready warps, bits say %d"
             t.sm_id t.cycle s t.n_ready.(s) counts.(s))
      else sched (s + 1)
    in
    sched 0

(* [Ok] when the first [n] entries of the maintained index [idx] equal
   [rebuilt]; else an error naming the first entry that differs. *)
let check_index t what idx n rebuilt =
  let m = Array.length rebuilt in
  let entry a c k = if k < c then string_of_int a.(k) else "none" in
  let rec go k =
    if k = n && k = m then Ok ()
    else if k < n && k < m && idx.(k) = rebuilt.(k) then go (k + 1)
    else
      Error
        (Printf.sprintf
           "SM %d, cycle %d: %s entry %d is %s, rebuilt %s (%d entries, \
            rebuilt %d)"
           t.sm_id t.cycle what k (entry idx n k) (entry rebuilt m k) n m)
  in
  go 0

let check_derived t =
  let ( let* ) = Result.bind in
  let ascending n keep =
    Array.of_list (List.filter keep (List.init n Fun.id))
  in
  let* () = check_ready_bits t in
  let* () =
    check_index t "occupied-slot index" t.occ t.n_occ
      (ascending (Array.length t.slots) (fun s -> t.slots.(s).occupied))
  in
  check_index t "resident-warp index" t.resident t.n_resident
    (ascending (Array.length t.warps) (fun wid -> Option.is_some t.warps.(wid)))

(* ------------------------------------------------------------------ *)
(* Writeback                                                           *)
(* ------------------------------------------------------------------ *)

let is_mem_class t idx =
  match t.kinfo.Kinfo.unit_of.(idx) with
  | Kinfo.Mem_global | Kinfo.Mem_shared -> true
  | Kinfo.Alu | Kinfo.Sfu | Kinfo.Ctrl -> false

(* Double the in-flight pool, stacking the new slots as free. *)
let grow_pool t =
  let n = Array.length t.live in
  let n' = Int.max 16 (2 * n) in
  let grow a = Array.append a (Array.make (n' - n) 0) in
  t.fly_wid <- grow t.fly_wid;
  t.fly_pos <- grow t.fly_pos;
  t.fly_idx <- grow t.fly_idx;
  t.fly_finish <- grow t.fly_finish;
  t.fly_mshrs <- grow t.fly_mshrs;
  t.live <- grow t.live;
  t.free <- Array.init n' (fun k -> n' - 1 - k);
  t.n_free <- n' - n

(* Record one operation entering the pipeline between issue and
   writeback; every insertion site must go through here so the
   maintained counters ([next_wb], per-warp [mem_inflight],
   [mshr_used]) stay consistent with the pool. [mshrs] is the number of
   MSHR entries the op allocated (missed lines of a gated global load;
   0 everywhere else). A DRAM request this issue queued learns the
   op's slot here, so [commit_epoch] can patch its completion in. *)
let add_inflight t (w : Engine.wctx) pos idx ~finish ~mshrs =
  if t.n_free = 0 then grow_pool t;
  t.n_free <- t.n_free - 1;
  let s = t.free.(t.n_free) in
  t.fly_wid.(s) <- w.Engine.wid;
  t.fly_pos.(s) <- pos;
  t.fly_idx.(s) <- idx;
  t.fly_finish.(s) <- finish;
  t.fly_mshrs.(s) <- mshrs;
  t.live.(t.n_live) <- s;
  t.n_live <- t.n_live + 1;
  if finish < t.next_wb then t.next_wb <- finish;
  if mshrs > 0 then w.Engine.mshr_used <- w.Engine.mshr_used + mshrs;
  if is_mem_class t idx then w.Engine.mem_inflight <- w.Engine.mem_inflight + 1;
  if t.dram_patch >= 0 then begin
    t.dq.(t.dram_patch) <- s;
    t.dram_patch <- -1
  end

(* Retire the op in pool slot [s]: release its registers, slot count
   and MSHRs, free the slot, and tell the engine. *)
let complete t s =
  let stats = t.stats in
  let w = Option.get t.warps.(t.fly_wid.(s)) in
  let idx = t.fly_idx.(s) in
  (match t.kinfo.Kinfo.dst_reg.(idx) with
  | Some d ->
    w.Engine.pending.(d) <- w.Engine.pending.(d) - 1;
    w.Engine.pending_count <- w.Engine.pending_count - 1;
    stats.Stats.rf_writes <- stats.Stats.rf_writes + 1;
    update_ready t w
  | None -> ());
  t.slots.(w.Engine.tb_slot).inflight_ops <-
    t.slots.(w.Engine.tb_slot).inflight_ops - 1;
  w.Engine.mshr_used <- w.Engine.mshr_used - t.fly_mshrs.(s);
  if is_mem_class t idx then w.Engine.mem_inflight <- w.Engine.mem_inflight - 1;
  t.free.(t.n_free) <- s;
  t.n_free <- t.n_free + 1;
  t.engine.Engine.on_writeback ~cycle:t.cycle w t.fly_pos.(s)

let writeback t =
  if t.next_wb <= t.cycle then begin
    (* [next_wb] is the minimum pending finish, so entering here means at
       least one operation completes this cycle. The scan goes in issue
       order and compacts the survivors in place. The order in which
       same-cycle completions take effect is not observable: each one's
       effects commute with the others' (scoreboard, slot and MSHR
       counters, Stats sums, and the engines' hooks: UV sets a ready
       flag; DARSIE sets the instance's LeaderWB, then sweeps that PC's
       entry, freeing registers into a count-based freelist). *)
    t.last_wb_cycle <- t.cycle;
    let nwb = ref max_int and kept = ref 0 in
    for k = 0 to t.n_live - 1 do
      let s = t.live.(k) in
      let fin = t.fly_finish.(s) in
      if fin <= t.cycle then complete t s
      else begin
        if fin < !nwb then nwb := fin;
        t.live.(!kept) <- s;
        incr kept
      end
    done;
    t.n_live <- !kept;
    t.next_wb <- !nwb
  end

(* ------------------------------------------------------------------ *)
(* Barrier release and TB retirement                                   *)
(* ------------------------------------------------------------------ *)

(* Barrier presence is tracked incrementally: [slot.n_at_barrier] is
   bumped when a Ctrl issue parks a warp at a barrier and zeroed on
   release and TB launch, so the per-cycle barrier tests are a single
   integer test. The two scans below over a slot's warps cross-check the
   counter against the warps' [at_barrier] flags: the all-arrived scan
   recounts them, and the retirement scan, which runs only when the
   counter is 0, finds none. *)
let barriers_and_retirement t =
  let wpt = t.warps_per_tb in
  let retired = t.tbs_retired in
  (* [occ] stays as it was at entry until the loop ends, so a slot
     retiring here does not disturb the walk. *)
  for j = 0 to t.n_occ - 1 do
    let slot_idx = t.occ.(j) in
    let slot = t.slots.(slot_idx) in
    let base = slot_idx * wpt in
    if slot.n_at_barrier > 0 then begin
      t.stats.Stats.barrier_stall_cycles <-
        t.stats.Stats.barrier_stall_cycles + slot.n_at_barrier;
      let all_arrived = ref true and at_barrier = ref 0 in
      for k = 0 to wpt - 1 do
        match t.warps.(base + k) with
        | Some w when w.Engine.at_barrier -> incr at_barrier
        | Some w when not (warp_drained w) -> all_arrived := false
        | _ -> ()
      done;
      assert (!at_barrier = slot.n_at_barrier);
      (* The barrier network takes barrier_lat cycles from last-warp
         arrival to release. *)
      if !all_arrived && slot.barrier_release_at < 0 then
        slot.barrier_release_at <- t.cycle + t.cfg.Config.barrier_lat;
      if slot.barrier_release_at >= 0 && t.cycle >= slot.barrier_release_at
      then begin
        for k = 0 to wpt - 1 do
          match t.warps.(base + k) with
          | Some w ->
            w.Engine.at_barrier <- false;
            update_ready t w
          | None -> ()
        done;
        slot.n_at_barrier <- 0;
        slot.barrier_release_at <- -1;
        emit t ~warp:slot_idx Obs.Event.Barrier_release
      end
    end;
    (* Retirement: all warps drained, nothing in flight, none parked at a
       barrier. *)
    if slot.inflight_ops = 0 && slot.n_at_barrier = 0 then begin
      let all_drained = ref true in
      for k = 0 to wpt - 1 do
        match t.warps.(base + k) with
        | Some w ->
          assert (not w.Engine.at_barrier);
          if not (warp_drained w) then all_drained := false
        | None -> ()
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
  done;
  if t.tbs_retired <> retired then reindex t

(* ------------------------------------------------------------------ *)
(* Issue                                                               *)
(* ------------------------------------------------------------------ *)

(* Deterministic architectural register -> bank map; renamed (DARSIE)
   registers live in a strided region of the same banks, which is how
   follower reads create extra conflicts. *)
let bank_of t (w : Engine.wctx) reg =
  ((w.Engine.wid * t.kinfo.Kinfo.kernel.Darsie_isa.Kernel.nregs) + reg)
  mod t.cfg.Config.rf_banks

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
   in-flight ops. Sound because the epoch length is capped at
   [l1_lat + dram_lat]: a request issued inside an epoch finishes
   strictly after it, so no writeback falls due on a placeholder; the
   one other reader of completions, the stall blame, waits for the
   patch when a placeholder competes ([nearest_inflight_pc]). *)
let dram_request t ~now ~ntxns =
  let k = 3 * t.n_dq in
  if k = Array.length t.dq then
    t.dq <- Array.append t.dq (Array.make (Int.max 48 k) 0);
  t.dq.(k) <- now;
  t.dq.(k + 1) <- ntxns;
  t.dq.(k + 2) <- -1;
  t.dram_patch <- k + 2;
  t.n_dq <- t.n_dq + 1;
  max_int

(* The issue gate, written once for the schedulers' probe ([issueable])
   and the issue itself ([try_issue_head]): the warp's ready bit is set,
   and no structural memory gate holds its head. The gates are asked
   live, since the shared replay port is not the warp's own state. *)
let head_ready t (w : Engine.wctx) =
  t.ready.(w.Engine.wid)
  && not
       (t.struct_gates
       && mem_struct_blocked t w w.Engine.ib_idx.(w.Engine.ib_head))

(* The first operand-collector unit free this cycle from [u] on, or -2. *)
let rec free_collector t u =
  if u = Array.length t.collectors then -2
  else if t.collectors.(u) <= t.cycle then u
  else free_collector t (u + 1)

(* Issue one op from warp [w]; returns false if the head op cannot issue:
   past the gate, it needs room in this cycle's issue budget and, when
   it reads registers, a free operand-collector unit ([-1]: none
   needed). *)
let try_issue_head t (w : Engine.wctx) =
  head_ready t w
  &&
  let idx = w.Engine.ib_idx.(w.Engine.ib_head) in
  let kinfo = t.kinfo in
  let unit_class = kinfo.Kinfo.unit_of.(idx) in
  (match unit_class with
  | Kinfo.Mem_global | Kinfo.Mem_shared -> t.mem_left > 0
  | Kinfo.Sfu -> t.sfu_left > 0
  | Kinfo.Alu | Kinfo.Ctrl -> true)
  &&
  let srcs = kinfo.Kinfo.src_regs.(idx) in
  let collector = if Array.length srcs = 0 then -1 else free_collector t 0 in
  collector <> -2
  && begin
    let pos = w.Engine.ib_pos.(w.Engine.ib_head) in
    ib_pop w;
    let stats = t.stats in
    let cfg = t.cfg in
    let mshrs_alloc = ref 0 in
    t.issue_slots_used <- t.issue_slots_used + 1;
    if t.issue_slots_used = 1 then t.active_pc <- idx;
    (match t.engine.Engine.on_issue ~cycle:t.cycle w pos with
    | Engine.Drop ->
      (* Eliminated at issue (UV): consumed fetch/decode and an issue
         slot but no execution resources; the reuse-buffer value is
         available to dependents next cycle. *)
      stats.Stats.dropped_issue <- stats.Stats.dropped_issue + 1;
      (match t.pcstat with
      | Some p -> Obs.Pcstat.note_drop p ~pc:idx
      | None -> ());
      emit t ~warp:w.Engine.wid Obs.Event.Drop_at_issue;
      Stats.note_eliminated stats kinfo.Kinfo.shape.(idx);
      (match kinfo.Kinfo.dst_reg.(idx) with
      | Some d ->
        w.Engine.pending.(d) <- w.Engine.pending.(d) + 1;
        w.Engine.pending_count <- w.Engine.pending_count + 1;
        t.slots.(w.Engine.tb_slot).inflight_ops <-
          t.slots.(w.Engine.tb_slot).inflight_ops + 1;
        add_inflight t w pos idx ~finish:(t.cycle + 1) ~mshrs:0
      | None -> ())
    | Engine.Execute ->
      stats.Stats.issued <- stats.Stats.issued + 1;
      (match t.pcstat with
      | Some p -> Obs.Pcstat.note_issue p ~pc:idx
      | None -> ());
      stats.Stats.executed_threads <-
        stats.Stats.executed_threads
        + popcount (Record.active w.Engine.trace pos);
      emit t ~warp:w.Engine.wid Obs.Event.Issue;
      (* Register file reads and bank conflicts. *)
      let conflicts = ref 0 in
      for k = 0 to Array.length srcs - 1 do
        let b = bank_of t w srcs.(k) in
        if t.bank_use.(b) > 0 then incr conflicts;
        t.bank_use.(b) <- t.bank_use.(b) + 1;
        stats.Stats.rf_reads <- stats.Stats.rf_reads + 1
      done;
      stats.Stats.rf_bank_conflicts <-
        stats.Stats.rf_bank_conflicts + !conflicts;
      if collector >= 0 then
        t.collectors.(collector) <- t.cycle + 2 + !conflicts;
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
          t.sfu_left <- t.sfu_left - 1;
          stats.Stats.sfu_ops <- stats.Stats.sfu_ops + 1;
          t.cycle + cfg.Config.sfu_lat + !conflicts
        | Kinfo.Mem_shared ->
          t.mem_left <- t.mem_left - 1;
          stats.Stats.mem_ops <- stats.Stats.mem_ops + 1;
          emit t ~warp:w.Engine.wid Obs.Event.Mem_access;
          let banks =
            if cfg.Config.smem_banks > 0 then cfg.Config.smem_banks
            else cfg.Config.warp_size
          in
          let sc =
            Mem_model.shared_conflicts t.mem_scratch ~banks w.Engine.trace
              pos
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
          t.mem_left <- t.mem_left - 1;
          stats.Stats.mem_ops <- stats.Stats.mem_ops + 1;
          emit t ~warp:w.Engine.wid Obs.Event.Mem_access;
          let nlines =
            Mem_model.coalesce t.mem_scratch
              ~line_bytes:cfg.Config.l1_line w.Engine.trace pos
          in
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
            t.dram_patch <- -1;
            t.cycle + cfg.Config.alu_lat
          end
          else begin
            stats.Stats.l1_accesses <- stats.Stats.l1_accesses + nlines;
            let misses = ref 0 in
            for k = 0 to nlines - 1 do
              let line = Mem_model.line t.mem_scratch k in
              if not (Mem_model.L1.access t.l1 line) then incr misses
            done;
            let misses = !misses in
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
      (match (unit_class, t.pcstat) with
      | (Kinfo.Mem_global | Kinfo.Mem_shared), Some p when t.dram_patch < 0 ->
        Obs.Pcstat.note_mem_latency p ~pc:idx ~lat:(finish - t.cycle)
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
      add_inflight t w pos idx ~finish ~mshrs:!mshrs_alloc);
    update_ready t w;
    true
  end

(* Candidates: warps whose head passes the issue gate. The structural
   memory gates (MSHR / replay port) hide a warp from the schedulers so
   GTO moves on instead of sticking to it. Top-level (not a per-cycle
   closure) so the issue stage allocates nothing on the steady path. *)
let issueable t wid =
  match t.warps.(wid) with Some w -> head_ready t w | None -> false

let pick_warp t sched =
  let cfg = t.cfg in
  let nw = Array.length t.warps in
  if t.n_ready.(sched) = 0 then -1
  else
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
  t.mem_left <- cfg.Config.mem_per_cycle;
  t.sfu_left <- cfg.Config.sfu_per_cycle;
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
          !issued < cfg.Config.issue_per_scheduler && try_issue_head t w
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
let note_exec_fate t (w : Engine.wctx) pos idx =
  if t.kinfo.Kinfo.marked_eligible.(idx) then
    let fate =
      if not t.kinfo.Kinfo.tb_redundant.(idx) then Obs.Ledger.Demoted_at_launch
      else t.engine.Engine.exec_fate w pos
    in
    Obs.Ledger.note t.ledger ~pc:idx fate

(* The fetch gate, written once for the fetch stage and the wake
   calendar ([next_event_cycle]): the warp has I-buffer room and trace
   left, and the engine leaves its gate open. *)
let fetch_open t (w : Engine.wctx) =
  w.Engine.ib_count < t.cfg.Config.ibuf_depth
  && (not (warp_done w))
  && w.Engine.fetch_ok

let fetch t =
  let cfg = t.cfg in
  t.fetch_mutated <- false;
  let nw = Array.length t.warps in
  if nw = 0 then ()
  else begin
    (* The round robin starts at the first resident wid at or after
       [fetch_ptr] and wraps: the order of a scan over every wid from
       [fetch_ptr] that passes over the empty ones. *)
    let n = t.n_resident in
    let first = ref 0 in
    while !first < n && t.resident.(!first) < t.fetch_ptr do
      incr first
    done;
    let fetched = ref 0 and j = ref 0 in
    while !fetched < cfg.Config.fetch_width && !j < n do
      let k = !first + !j in
      let wid = t.resident.(if k >= n then k - n else k) in
      (match t.warps.(wid) with
      | Some w
        when (not w.Engine.at_barrier)
             && t.cycle >= w.Engine.fetch_ready_at
             && fetch_open t w -> begin
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
            if
              (not (warp_done w))
              && t.engine.Engine.remove_at_fetch w w.Engine.fi
            then begin
              let idx = Record.idx w.Engine.trace w.Engine.fi in
              t.fetch_mutated <- true;
              if t.kinfo.Kinfo.marked_eligible.(idx) then
                Obs.Ledger.note t.ledger ~pc:idx Obs.Ledger.Skipped;
              w.Engine.fi <- w.Engine.fi + 1;
              t.stats.Stats.skipped_prefetch <-
                t.stats.Stats.skipped_prefetch + 1;
              (match t.pcstat with
              | Some p -> Obs.Pcstat.note_skip p ~pc:idx
              | None -> ());
              emit t ~warp:w.Engine.wid Obs.Event.Skip_prefetch;
              Stats.note_eliminated t.stats t.kinfo.Kinfo.shape.(idx)
            end
            else continue_removing := false
          done;
          if not (warp_done w) then begin
            let idx = Record.idx w.Engine.trace w.Engine.fi in
            if not !slot_used then begin
              slot_used := true;
              incr fetched
            end;
            t.fetch_mutated <- true;
            let pc = Darsie_isa.Kernel.pc_of_index idx in
            if Mem_model.L1.access t.icache pc then begin
              t.stats.Stats.fetched <- t.stats.Stats.fetched + 1;
              (match t.pcstat with
              | Some p -> Obs.Pcstat.note_fetch p ~pc:idx
              | None -> ());
              emit t ~warp:w.Engine.wid Obs.Event.Fetch;
              note_exec_fate t w w.Engine.fi idx;
              ib_push w ~pos:w.Engine.fi ~cycle:t.cycle ~idx;
              if w.Engine.ib_count = 1 then update_ready t w;
              w.Engine.fi <- w.Engine.fi + 1;
              decr bundle_left;
              if
                !bundle_left > 0
                && w.Engine.ib_count < cfg.Config.ibuf_depth
                && (not (warp_done w))
                (* [fetch_ok] is stale once [fi] moved: the follower
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
          end
        done;
        if !slot_used then t.fetch_ptr <- (if wid + 1 = nw then 0 else wid + 1)
      end
      | _ -> ());
      incr j
    done;
    if !fetched = 0 then
      t.stats.Stats.fetch_stall_cycles <- t.stats.Stats.fetch_stall_cycles + 1
  end

(* ------------------------------------------------------------------ *)
(* Stall-cycle attribution                                             *)
(* ------------------------------------------------------------------ *)

(* The blame rule over in-flight candidates: the PC of the one finishing
   soonest, -1 when nothing qualifies. Ties on the finish cycle break
   toward the lower PC so the blame is independent of the pool's scan
   order. When a DRAM request still carrying its epoch placeholder
   competes with another candidate the winner is not known yet:
   [deferred_pc]. *)
let deferred_pc = -2

let sooner fin pc best_fin best_pc =
  fin < best_fin || (fin = best_fin && (pc < best_pc || best_pc < 0))

(* The candidates: every op when [wid] < 0, else warp [wid]'s memory ops. *)
let blamable t wid s =
  wid < 0 || (t.fly_wid.(s) = wid && is_mem_class t t.fly_idx.(s))

(* PC of the in-flight memory op finishing soonest for warp [wid] (or of
   any op when [wid] < 0); the instruction a memory-bound cycle is most
   fairly blamed on. With the per-PC profile on, a [deferred_pc] result
   leaves its candidates in [blame_cands] for the charge site: a
   placeholder by its slot, which stays put until [commit_epoch]
   patches it, and a settled op by its (finish, PC), since its slot may
   be reused before then. *)
let nearest_inflight_pc t wid =
  let best_fin = ref max_int and best_pc = ref (-1) in
  let n = ref 0 and placeholder = ref false in
  for k = 0 to t.n_live - 1 do
    let s = t.live.(k) in
    if blamable t wid s then begin
      incr n;
      let fin = t.fly_finish.(s) and pc = t.fly_idx.(s) in
      if fin = max_int then placeholder := true;
      if sooner fin pc !best_fin !best_pc then begin
        best_fin := fin;
        best_pc := pc
      end
    end
  done;
  if !placeholder && !n > 1 then begin
    if Option.is_some t.pcstat then begin
      let c = Array.make (3 * !n) 0 and j = ref 0 in
      for k = 0 to t.n_live - 1 do
        let s = t.live.(k) in
        if blamable t wid s then begin
          c.(!j) <- (if t.fly_finish.(s) = max_int then s else -1);
          c.(!j + 1) <- t.fly_finish.(s);
          c.(!j + 2) <- t.fly_idx.(s);
          j := !j + 3
        end
      done;
      t.blame_cands <- c
    end;
    deferred_pc
  end
  else !best_pc

(* Charge [n] cycles of [bucket] to the blamed PC in the per-PC profile,
   or hold them for [commit_epoch] when the blame is deferred. *)
let charge_pc t bucket pc n =
  match t.pcstat with
  | None -> ()
  | Some p ->
    if pc = deferred_pc then
      t.blame_pending <- (bucket, n, t.blame_cands) :: t.blame_pending
    else Obs.Pcstat.charge_n p ~pc bucket ~n

let head_pc (w : Engine.wctx) =
  if w.Engine.ib_count = 0 then -1 else w.Engine.ib_idx.(w.Engine.ib_head)

let next_pc (w : Engine.wctx) =
  if warp_done w then -1 else Record.idx w.Engine.trace w.Engine.fi

let warp_at t i = Option.get t.warps.(i)

let blame t bucket pc =
  t.blamed_pc <- pc;
  bucket

(* Classify one non-issuing cycle into exactly one Attrib bucket, and
   name the static instruction blocking progress in [blamed_pc] (-1 =
   the none-row).
   Shared by [step] (at its end, so "aged" I-buffer heads, fetched
   before this cycle, are exactly the ones the issue stage considered
   and rejected) and the fast-forward bulk charge. Pcstat and Attrib are
   both fed from this single result, which is what makes the per-PC
   table conservative by construction.

   One allocation-free pass in warp order over the live (not drained)
   warps, stopping early at the first aged head the scoreboard holds
   while its warp has memory ops in flight (Mem_pending). Otherwise the
   cycle is Mem_pending or Idle with no live warp, Barrier when every
   live warp waits at one, Mem_struct for the first aged head a
   structural memory gate holds (looked for only when a fidelity knob
   is on; the gate is constant false otherwise), Scoreboard for the
   first aged head, Darsie_sync for the first warp the engine keeps
   from fetching into an empty I-buffer, and Fetch_starved otherwise. *)
let classify_stall t =
  let live = ref false and first_nonbarrier = ref (-1) in
  let first_aged = ref (-1) and struct_w = ref (-1) and gated = ref (-1) in
  let mem_w = ref (-1) and j = ref 0 in
  while !mem_w < 0 && !j < t.n_resident do
    let i = t.resident.(!j) in
    (match t.warps.(i) with
    | Some w when not (warp_drained w) ->
      live := true;
      if not w.Engine.at_barrier then begin
        if !first_nonbarrier < 0 then first_nonbarrier := i;
        if w.Engine.ib_count = 0 then begin
          if !gated < 0 && not w.Engine.fetch_ok then gated := i
        end
        else begin
          if w.Engine.ib_cycle.(w.Engine.ib_head) < t.cycle then begin
            if !first_aged < 0 then first_aged := i;
            let idx = w.Engine.ib_idx.(w.Engine.ib_head) in
            if not (scoreboard_ready w t.kinfo idx) then begin
              if w.Engine.mem_inflight > 0 then mem_w := i
            end
            else if
              t.struct_gates && !struct_w < 0 && mem_struct_blocked t w idx
            then struct_w := i
          end
        end
      end
    | _ -> ());
    incr j
  done;
  if !mem_w >= 0 then
    blame t Obs.Attrib.Mem_pending (nearest_inflight_pc t !mem_w)
  else if not !live then
    if t.n_live > 0 then
      blame t Obs.Attrib.Mem_pending (nearest_inflight_pc t (-1))
    else blame t Obs.Attrib.Idle (-1)
  else if !first_nonbarrier < 0 then
    blame t Obs.Attrib.Barrier t.last_barrier_pc
  else if !struct_w >= 0 then begin
    (* blame the access occupying the port, or the nearest of the warp's
       own in-flight misses holding its MSHRs *)
    match t.kinfo.Kinfo.unit_of.(head_pc (warp_at t !struct_w)) with
    | Kinfo.Mem_shared -> blame t Obs.Attrib.Mem_struct t.smem_replay_pc
    | _ -> blame t Obs.Attrib.Mem_struct (nearest_inflight_pc t !struct_w)
  end
  else if !first_aged >= 0 then
    blame t Obs.Attrib.Scoreboard (head_pc (warp_at t !first_aged))
  else if !gated >= 0 then
    blame t Obs.Attrib.Darsie_sync (next_pc (warp_at t !gated))
  else
    let w = warp_at t !first_nonbarrier in
    blame t Obs.Attrib.Fetch_starved
      (match head_pc w with -1 -> next_pc w | p -> p)

let classify_cycle t =
  if t.issue_slots_used > 0 then blame t Obs.Attrib.Active t.active_pc
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
  let bucket = classify_cycle t in
  Obs.Attrib.bump t.attr bucket;
  charge_pc t bucket t.blamed_pc 1;
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
   - a warp whose ready bit is set can issue next cycle
     (structural/collector limits are ignored — conservative);
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
     fetch, and a fetch mutates warp state that phase has not seen, so a
     fetch forces one more normal step. *)
  if (not (t.engine.Engine.skip_steady ())) || t.fetch_mutated then
    if busy t then t.cycle + 1 else max_int
  else begin
    let now1 = t.cycle + 1 in
    let wake = ref max_int in
    if t.n_live > 0 then wake := Int.max now1 t.next_wb;
    (* Fidelity-knob event sources. MSHR entries free at writeback, so
       their releases ride on [next_wb] above. The shared replay port
       frees the cycle after [smem_replay_until]; noting it bounds any
       jump at the port release. (A head blocked by either gate has
       its ready bit set, so the per-warp issue-side source below already
       pins the wake to [now1] whenever a warp is actually waiting —
       this source only matters when the port drains unobserved.) *)
    if t.smem_replay_until > t.cycle then
      wake := Int.min !wake (Int.max now1 (t.smem_replay_until + 1));
    let wpt = t.warps_per_tb in
    (* Every source yields a cycle >= [now1], so once the wake is [now1]
       no later source can improve it and the scans stop. *)
    let j = ref 0 in
    while !j < t.n_occ && !wake > now1 do
      let slot = t.slots.(t.occ.(!j)) in
      let base = t.occ.(!j) * wpt in
      let all_drained = ref true in
      let all_arrived = ref true in
      let k = ref 0 in
      while !k < wpt && !wake > now1 do
        (match t.warps.(base + !k) with
        | None -> ()
        | Some w ->
          if not (warp_drained w) then begin
            all_drained := false;
            if not w.Engine.at_barrier then begin
              all_arrived := false;
              (* issue side: every buffered head is aged by the next
                 cycle, so a ready head can issue then *)
              if t.ready.(w.Engine.wid) then wake := now1
              else if fetch_open t w then
                wake := Int.min !wake (Int.max now1 w.Engine.fetch_ready_at)
            end
          end);
        incr k
      done;
      if slot.n_at_barrier > 0 then begin
        if slot.barrier_release_at >= 0 then
          wake := Int.min !wake (Int.max now1 slot.barrier_release_at)
        else if !all_arrived then wake := now1
      end
      else if slot.inflight_ops = 0 && !all_drained then
        (* retirement pending: the next step frees the slot and may
           trigger a TB launch *)
        wake := now1;
      incr j
    done;
    (match t.series with
    | Some s ->
      let interval = Obs.Series.interval s in
      wake := Int.min !wake (((t.cycle / interval) + 1) * interval)
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
    let bucket = classify_stall t in
    t.cycle <- to_;
    t.stats.Stats.cycles <- to_;
    Obs.Attrib.bump_n t.attr bucket span;
    charge_pc t bucket t.blamed_pc span;
    (* the stepped path bumps these once per no-progress cycle *)
    if Array.length t.warps > 0 then
      t.stats.Stats.fetch_stall_cycles <-
        t.stats.Stats.fetch_stall_cycles + span;
    for j = 0 to t.n_occ - 1 do
      let slot = t.slots.(t.occ.(j)) in
      if slot.n_at_barrier > 0 then
        t.stats.Stats.barrier_stall_cycles <-
          t.stats.Stats.barrier_stall_cycles + (span * slot.n_at_barrier)
    done;
    (* Every skipped cycle is issue-less, and the stepped path resets
       each scheduler's greedy pick on issue-less cycles: without this
       a stale greedy warp would beat a lower, equally-ready warp out
       of the post-landing scan order and reorder issues vs stepping. *)
    Array.fill t.greedy 0 (Array.length t.greedy) (-1);
    (* the engine's skip phase would have run once per skipped cycle *)
    t.engine.Engine.bulk_skip ~cycle:to_ ~n:span;
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
   Each deferred request carries [now] = issue cycle + l1_lat — the same
   constant offset for every site — and each per-SM queue is in issue
   order, so merging the queues by [now], ties to the lower SM index,
   recovers that order. With the real completions known, the per-PC
   profile receives each patched load's latency and the stall charges
   whose blame waited on them. Returns the number of requests replayed
   (for telemetry). *)
let commit_epoch ~dram sms =
  let total = Array.fold_left (fun acc t -> acc + t.n_dq) 0 sms in
  if total > 0 then begin
    let next = Array.make (Array.length sms) 0 in
    for _ = 1 to total do
      let best = ref (-1) and best_now = ref max_int in
      for i = 0 to Array.length sms - 1 do
        let t = sms.(i) in
        if next.(i) < t.n_dq && t.dq.(3 * next.(i)) < !best_now then begin
          best := i;
          best_now := t.dq.(3 * next.(i))
        end
      done;
      let t = sms.(!best) in
      let k = 3 * next.(!best) in
      next.(!best) <- next.(!best) + 1;
      let finish =
        Mem_model.Dram.request dram ~now:t.dq.(k) ~ntxns:t.dq.(k + 1)
      in
      if t.dq.(k + 2) >= 0 then t.fly_finish.(t.dq.(k + 2)) <- finish
    done;
    Array.iter
      (fun t ->
        if t.n_dq > 0 then begin
          (match t.pcstat with
          | None -> ()
          | Some p ->
            for k = 0 to t.n_dq - 1 do
              let s = t.dq.((3 * k) + 2) in
              if s >= 0 then
                Obs.Pcstat.note_mem_latency p ~pc:t.fly_idx.(s)
                  ~lat:(t.fly_finish.(s) - (t.dq.(3 * k) - t.cfg.Config.l1_lat))
            done;
            List.iter
              (fun (bucket, n, c) ->
                let best_fin = ref max_int and best_pc = ref (-1) in
                for j = 0 to (Array.length c / 3) - 1 do
                  let s = c.(3 * j) and pc = c.((3 * j) + 2) in
                  let fin =
                    if s >= 0 then t.fly_finish.(s) else c.((3 * j) + 1)
                  in
                  if sooner fin pc !best_fin !best_pc then begin
                    best_fin := fin;
                    best_pc := pc
                  end
                done;
                charge_pc t bucket !best_pc n)
              t.blame_pending;
            t.blame_pending <- []);
          t.n_dq <- 0;
          (* Placeholder finishes were [max_int], which never lowered
             [next_wb]; recompute it from the patched pool. *)
          t.next_wb <- max_int;
          for k = 0 to t.n_live - 1 do
            t.next_wb <- Int.min t.next_wb t.fly_finish.(t.live.(k))
          done
        end)
      sms
  end;
  total
