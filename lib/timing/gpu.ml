open Darsie_isa
open Darsie_trace
module Obs = Darsie_obs
module Tel = Darsie_telemetry.Telemetry

type result = {
  cycles : int;
  stats : Stats.t;
  per_sm : Stats.t array;
  engine : string;
  tbs_per_sm : int;
  attribution : Obs.Attrib.t;
  per_sm_attribution : Obs.Attrib.t array;
  series : Obs.Series.t array;
  pcstat : Obs.Pcstat.t option;
  per_sm_pcstat : Obs.Pcstat.t array;
  skip_telemetry : (int * Obs.Pcstat.skip_entry) list;
  ledger : Obs.Ledger.t;  (** skip ledger summed over SMs; always on *)
  per_sm_ledger : Obs.Ledger.t array;
      (** each conserves eligible = Σ fates per PC on its own SM *)
}

let occupancy (cfg : Config.t) (kernel : Kernel.t) ~warps_per_tb =
  let by_warps = cfg.Config.max_warps_per_sm / warps_per_tb in
  let by_shared =
    if kernel.Kernel.shared_bytes = 0 then max_int
    else cfg.Config.shared_bytes_per_sm / kernel.Kernel.shared_bytes
  in
  let by_regs =
    let per_tb = max 1 (kernel.Kernel.nregs * warps_per_tb) in
    cfg.Config.regfile_vregs / per_tb
  in
  max 1 (min (min cfg.Config.max_tbs_per_sm by_warps) (min by_shared by_regs))

module Sim_error = Darsie_check.Sim_error

(* Merge per-SM engine counters by name for the diagnostic dump. *)
let merge_notes per_sm_notes =
  let acc = Hashtbl.create 32 in
  let order = ref [] in
  List.iter
    (List.iter (fun (k, v) ->
         match Hashtbl.find_opt acc k with
         | Some n -> Hashtbl.replace acc k (n + v)
         | None ->
           Hashtbl.add acc k v;
           order := k :: !order))
    per_sm_notes;
  List.rev_map (fun k -> (k, Hashtbl.find acc k)) !order

let assemble ~cycles ~tbs_per_sm (kernel : Kernel.t) sms =
  Array.iter Sm.finalize sms;
  let per_sm = Array.map Sm.stats sms in
  let agg = Stats.create () in
  Array.iter (fun s -> Stats.add agg s) per_sm;
  agg.Stats.cycles <- cycles;
  let per_sm_attribution = Array.map Sm.attribution sms in
  let attribution = Obs.Attrib.create () in
  Array.iter (fun a -> Obs.Attrib.add attribution a) per_sm_attribution;
  let present f = Array.of_list (List.filter_map f (Array.to_list sms)) in
  let per_sm_pcstat = present Sm.pcstat in
  let pcstat_agg =
    if Array.length per_sm_pcstat = 0 then None
    else begin
      let acc = Obs.Pcstat.create ~n:(Array.length kernel.Kernel.insts) in
      Array.iter (fun p -> Obs.Pcstat.add acc p) per_sm_pcstat;
      Some acc
    end
  in
  let skip_telemetry =
    Obs.Pcstat.merge_skip_telemetry
      (Array.to_list (Array.map Sm.skip_telemetry sms))
  in
  let per_sm_ledger = Array.map Sm.ledger sms in
  let ledger = Obs.Ledger.create ~n:(Array.length kernel.Kernel.insts) in
  Array.iter (fun l -> Obs.Ledger.add ledger l) per_sm_ledger;
  {
    cycles;
    stats = agg;
    per_sm;
    engine = Sm.engine_name sms.(0);
    tbs_per_sm;
    attribution;
    per_sm_attribution;
    series = present Sm.series;
    pcstat = pcstat_agg;
    per_sm_pcstat;
    skip_telemetry;
    ledger;
    per_sm_ledger;
  }

(* How many shards [cfg.sm_domains] asks for on this machine: 1 is one
   shard on the calling domain, 0 auto-sizes to the host, anything else
   is capped at the SM count (extra domains would own empty shards). *)
let resolve_domains (cfg : Config.t) =
  let n =
    if cfg.Config.sm_domains = 0 then Domain.recommended_domain_count ()
    else cfg.Config.sm_domains
  in
  max 1 (min n cfg.Config.num_sms)

(* Epoch slack: how far an SM may run ahead of the earliest wake-up
   before the next barrier. It is the soundness bound itself: a deferred
   DRAM request issued at cycle [x] completes no earlier than [x + l1_lat
   + dram_lat], so as long as the epoch ends before that, its writeback
   cannot fall due on its [max_int] placeholder inside the epoch. At zero
   latencies it is one cycle, which is always sound (a request's
   writeback is never due before the next cycle). *)
let epoch_slack (cfg : Config.t) =
  max 1 (cfg.Config.l1_lat + cfg.Config.dram_lat)

(* Sort key of a buffered event in lockstep emission order: by cycle,
   and within a cycle every SM's step events before the threadblock
   launches of the dispatch scan that follows them. *)
let emission_key (ev : Obs.Event.t) =
  (2 * ev.Obs.Event.cycle)
  + if ev.Obs.Event.kind = Obs.Event.Tb_launch then 1 else 0

(* The cycle loop.

   The SM array is split into contiguous shards, one per domain; shard 0
   runs on the calling domain, so [sm_domains = 1] is the plain serial
   case with no domain spawned. Shards advance independently from
   barrier [B] to barrier [E] — all cross-SM state is frozen for the
   epoch. Each SM follows its own wake calendar: [wakes.(i)] is the next
   cycle SM [i] must step at (with fast-forward off, always the next
   cycle); until then its clock is fast-forwarded, bulk-charging the
   skipped cycles exactly as stepping them would ({!Sm.fast_forward}).
   DRAM requests are queued SM-locally under placeholder completions,
   events go to per-SM buffers, and a shard *pauses* an SM right after
   any step that retires a threadblock while TBs remain undispatched —
   the only instants a per-cycle dispatch scan can act. At the barrier
   the calling domain, single-threaded:

   1. replays the pause queue in (cycle, SM index) order — exactly the
      per-cycle dispatch scan's order — launching TBs and advancing the
      paused SM onward to [E] (which may pause it again);
   2. replays every deferred DRAM request against the shared channel in
      canonical (cycle, SM index, issue sequence) order
      ({!Sm.commit_epoch}), patching the placeholder completions;
   3. drains the event buffers into the sink in lockstep emission order
      ([emission_key], then SM index, then emission order), so a capped
      recorder keeps exactly the events a per-cycle loop would feed it;
   4. re-derives each live SM's wake-up from the patched state, decides
      termination, deadlock watchdog, cycle bound and deadline at [E],
      and picks the next [E].

   Epoch ends are chosen as [min-wake + slack - 1] (no SM steps before
   its wake-up, so every request of the epoch still completes after
   [E]), additionally capped so the watchdog can only fire exactly at a
   barrier, with exactly a per-cycle check's idle count and cycle. *)
let simulate ~cfg ~sink ~sample_interval ~deadline ~pcstat factory
    (kinfo : Kinfo.t) (trace : Record.t) =
  let kernel = kinfo.Kinfo.kernel in
  let warps_per_tb = Record.warps_per_tb trace in
  let tbs_per_sm = occupancy cfg kernel ~warps_per_tb in
  let num_sms = cfg.Config.num_sms in
  let ninsts = Array.length kernel.Kernel.insts in
  let traced = Obs.Sink.enabled sink in
  (* per-SM event buffers, newest first; each is only written by the
     domain advancing its SM, or at a barrier) *)
  let buffers = Array.make num_sms [] in
  let sms =
    Array.init num_sms (fun i ->
        let sink =
          if traced then
            Obs.Sink.of_fn (fun ev -> buffers.(i) <- ev :: buffers.(i))
          else Obs.Sink.null
        in
        let series =
          Option.map
            (fun interval ->
              Obs.Series.create ~interval ~names:Sm.sample_names)
            sample_interval
        in
        let pcstat =
          if pcstat then Some (Obs.Pcstat.create ~n:ninsts) else None
        in
        Sm.create ~sm_id:i ~sink ?series ?pcstat cfg kinfo factory
          ~slots:tbs_per_sm ~warps_per_tb)
  in
  let dram =
    Mem_model.Dram.create ~txn_cycles:cfg.Config.dram_txn_cycles
      ~latency:cfg.Config.dram_lat
  in
  (* Each buffer is already in emission order, so merging them in SM
     order (ties keep the earlier SM) yields the lockstep order. *)
  let drain () =
    if traced then begin
      let order a b = Int.compare (emission_key a) (emission_key b) in
      let evs =
        Array.fold_left (fun acc b -> List.merge order acc (List.rev b)) []
          buffers
      in
      Array.fill buffers 0 num_sms [];
      List.iter (Obs.Sink.emit sink) evs
    end
  in
  let ntbs = Record.num_tbs trace in
  let next_tb = ref 0 in
  let slack = epoch_slack cfg in
  let next_wake sm =
    if cfg.Config.fast_forward then Sm.next_event_cycle sm
    else Sm.cycle sm + 1
  in
  let wakes = Array.make num_sms 1 in
  (* cycle the SM went idle with dispatch closed; -1 = still live *)
  let done_at = Array.make num_sms (-1) in
  (* cycle the SM paused at for a dispatch scan; -1 = no pause pending *)
  let pauses = Array.make num_sms (-1) in
  let retired_seen = Array.make num_sms 0 in
  (* SM-cycles fast-forwarded rather than stepped *)
  let elided = Array.make num_sms 0 in
  let launch i c =
    let sm = sms.(i) in
    while !next_tb < ntbs && Sm.can_accept sm do
      wakes.(i) <- c + 1;
      Sm.launch_tb sm ~tb_id:!next_tb ~traces:trace.Record.tbs.(!next_tb);
      incr next_tb
    done
  in
  let fast_forward i c =
    let sm = sms.(i) in
    let span = c - Sm.cycle sm in
    if span > 0 then begin
      elided.(i) <- elided.(i) + span;
      Sm.fast_forward sm ~to_:c
    end
  in
  (* One move of SM [i] along its wake calendar towards cycle [e]:
     fast-forward to just before the wake-up and step there, or to [e]
     when the wake-up lies beyond it. True when it stepped. *)
  let move i e =
    let wake = wakes.(i) in
    if wake > e then begin
      fast_forward i e;
      false
    end
    else begin
      fast_forward i (wake - 1);
      Sm.step sms.(i);
      wakes.(i) <- next_wake sms.(i);
      true
    end
  in
  (* Bring a stopped SM (done, or never given a TB) to cycle [c] by the
     same schedule, from its stored wake-up: idle SMs still step at
     their sampling boundaries, and at every cycle with fast-forward
     off. *)
  let settle i c =
    while Sm.cycle sms.(i) < c do
      ignore (move i c)
    done
  in
  (* Advance SM [i] to epoch end [e], with two early exits — done (idle
     with dispatch closed) and paused (retired a TB with dispatch open).
     [open_] is the epoch's dispatch snapshot; only the barrier code moves
     [next_tb], so it is exact for the whole epoch. *)
  let advance ~open_ i e =
    let sm = sms.(i) in
    let continue = ref (done_at.(i) < 0) in
    while !continue do
      if (not (Sm.busy sm)) && not open_ then begin
        done_at.(i) <- Sm.cycle sm;
        continue := false
      end
      else if Sm.cycle sm >= e then continue := false
      else if
        move i e && open_ && Sm.tbs_retired sm <> retired_seen.(i)
      then begin
        retired_seen.(i) <- Sm.tbs_retired sm;
        pauses.(i) <- Sm.cycle sm;
        continue := false
      end
    done
  in
  (* --- persistent worker domains, released epoch-by-epoch ----------- *)
  let nworkers = resolve_domains cfg in
  let shard_lo w = w * num_sms / nworkers in
  let m = Mutex.create () in
  let cv_go = Condition.create () in
  let cv_done = Condition.create () in
  let epoch_id = ref 0 in
  let remaining = ref 0 in
  let target = ref 0 in
  let open_snap = ref true in
  let stop = ref false in
  let worker_exn = ref None in
  let worker_busy_ns = Array.make nworkers 0 in
  let run_shard w ~open_ e =
    let t0 = if nworkers > 1 then Tel.elapsed_ns () else 0 in
    (try
       for i = shard_lo w to shard_lo (w + 1) - 1 do
         advance ~open_ i e
       done
     with exn ->
       Mutex.lock m;
       if !worker_exn = None then worker_exn := Some exn;
       Mutex.unlock m);
    if nworkers > 1 then
      worker_busy_ns.(w) <- worker_busy_ns.(w) + (Tel.elapsed_ns () - t0)
  in
  (* shard 0 runs on the calling domain itself, so only shards 1..n-1
     get a spawned worker: at every barrier the calling domain has real
     work instead of parking on the condition variable, saving one
     domain handoff per epoch *)
  let worker w =
    let sp = Tel.begin_span ~args:[ ("worker", Tel.Int w) ] "sim.shard" in
    let my_epoch = ref 0 in
    let running = ref true in
    while !running do
      Mutex.lock m;
      while !epoch_id = !my_epoch && not !stop do
        Condition.wait cv_go m
      done;
      let e = !target and open_ = !open_snap and stopped = !stop in
      my_epoch := !epoch_id;
      Mutex.unlock m;
      if stopped then running := false
      else begin
        run_shard w ~open_ e;
        Mutex.lock m;
        remaining := !remaining - 1;
        if !remaining = 0 then Condition.signal cv_done;
        Mutex.unlock m
      end
    done;
    Tel.end_span sp
  in
  let run_epoch e =
    let open_ = !next_tb < ntbs in
    if nworkers > 1 then begin
      Mutex.lock m;
      target := e;
      open_snap := open_;
      remaining := nworkers - 1;
      incr epoch_id;
      Condition.broadcast cv_go;
      Mutex.unlock m
    end;
    run_shard 0 ~open_ e;
    if nworkers > 1 then begin
      Mutex.lock m;
      while !remaining > 0 do
        Condition.wait cv_done m
      done;
      Mutex.unlock m
    end;
    match !worker_exn with Some exn -> raise exn | None -> ()
  in
  let diag ~at ~cycles () =
    for i = 0 to num_sms - 1 do
      settle i at
    done;
    let attr = Obs.Attrib.create () in
    Array.iter (fun sm -> Obs.Attrib.add attr (Sm.attribution sm)) sms;
    {
      Sim_error.d_cycle = cycles;
      d_engine = Sm.engine_name sms.(0);
      d_warps = List.concat_map Sm.warp_snapshots (Array.to_list sms);
      d_attribution = Obs.Attrib.to_assoc attr;
      d_notes = merge_notes (Array.to_list (Array.map Sm.debug_state sms));
    }
  in
  let started = Tel.elapsed_ns () in
  let tel_epochs = ref 0 and tel_pauses = ref 0 and tel_batched = ref 0 in
  let tel_arms = ref 0 in
  let idle = ref 0 in
  let error = ref None in
  let finished = ref None in
  (* the initial dispatch scan: fill every SM *)
  for i = 0 to num_sms - 1 do
    launch i 0
  done;
  let b = ref 0 in
  let workers =
    Array.init (nworkers - 1) (fun i -> Domain.spawn (fun () -> worker (i + 1)))
  in
  let stop_workers () =
    Mutex.lock m;
    stop := true;
    Condition.broadcast cv_go;
    Mutex.unlock m;
    Array.iter Domain.join workers
  in
  (try
     while !error = None && !finished = None do
       (* earliest wake-up among live SMs decides where the next
          barrier may land: no SM steps before it, so every DRAM
          request of the epoch still completes after [e] *)
       let s = ref max_int in
       for i = 0 to num_sms - 1 do
         if done_at.(i) < 0 && wakes.(i) < !s then s := wakes.(i)
       done;
       let e =
         if !s = max_int then !b + slack (* deadlock: keep advancing *)
         else !s + slack - 1
       in
       let e =
         if cfg.Config.watchdog_cycles > 0 then
           min e (!b + cfg.Config.watchdog_cycles - !idle)
         else e
       in
       let e = min e cfg.Config.max_cycles in
       let e = max e (!b + 1) in
       incr tel_epochs;
       run_epoch e;
       (* dispatch replay, in (cycle, SM index) order *)
       let rec resolve () =
         let best = ref (-1) in
         Array.iteri
           (fun i c ->
             if
               c >= 0
               && (!best < 0
                  || c < pauses.(!best)
                  || (c = pauses.(!best) && i < !best))
             then best := i)
           pauses;
         if !best >= 0 then begin
           let i = !best in
           let c = pauses.(i) in
           pauses.(i) <- -1;
           incr tel_pauses;
           launch i c;
           advance ~open_:(!next_tb < ntbs) i e;
           resolve ()
         end
       in
       resolve ();
       tel_batched := !tel_batched + Sm.commit_epoch ~dram sms;
       drain ();
       for i = 0 to num_sms - 1 do
         if done_at.(i) < 0 then wakes.(i) <- next_wake sms.(i)
       done;
       if Array.for_all (fun d -> d >= 0) done_at then
         (* the run ends right after the cycle of the last retirement;
            SMs that stopped earlier are settled below *)
         finished := Some (Array.fold_left max 0 done_at)
       else begin
         (* Deadlock watchdog, evaluated at the barrier from per-SM
            timestamps: idle spans the per-cycle checks since the later
            of last token movement + 1 and the last writeback (in-flight
            work drains exactly there). The epoch caps above make the
            count hit [watchdog_cycles] exactly at a barrier — the
            cycle a per-cycle check fires at. *)
         if cfg.Config.watchdog_cycles > 0 then begin
           let inflight =
             Array.fold_left (fun acc sm -> acc + Sm.inflight_count sm) 0 sms
           in
           let prev_idle = !idle in
           if inflight > 0 then idle := 0
           else begin
             let f = ref 1 in
             Array.iter
               (fun sm ->
                 let p = Sm.last_progress sm + 1 in
                 if p > !f then f := p;
                 let wb = Sm.last_wb_cycle sm in
                 if wb > !f then f := wb)
               sms;
             idle := max 0 (e - !f + 1)
           end;
           if prev_idle = 0 && !idle > 0 then incr tel_arms;
           if !idle >= cfg.Config.watchdog_cycles then
             error :=
               Some
                 (Sim_error.Deadlock
                    {
                      message =
                        Printf.sprintf
                          "no warp fetched, issued or skipped and no \
                           operation was in flight for %d cycles"
                          !idle;
                      diag = diag ~at:e ~cycles:e ();
                    })
         end;
         (* the bound counts as exceeded only on entering cycle
            max_cycles + 1, i.e. after the watchdog had its chance at
            max_cycles *)
         if !error = None && e >= cfg.Config.max_cycles then
           error :=
             Some
               (Sim_error.Cycle_bound
                  {
                    bound = cfg.Config.max_cycles;
                    message =
                      Printf.sprintf
                        "simulation exceeded its cycle bound of %d cycles"
                        cfg.Config.max_cycles;
                    diag =
                      diag ~at:cfg.Config.max_cycles
                        ~cycles:(cfg.Config.max_cycles + 1) ();
                  });
         (match deadline with
         | Some budget_s when !error = None ->
           let elapsed = float_of_int (Tel.elapsed_ns () - started) /. 1e9 in
           if elapsed > budget_s then
             error :=
               Some
                 (Sim_error.Wall_timeout
                    {
                      budget_s;
                      cycle = e;
                      message =
                        Printf.sprintf
                          "wall-clock budget of %gs exhausted at cycle %d"
                          budget_s e;
                    })
         | _ -> ());
         if !b lsr 16 <> e lsr 16 && Tel.Progress.mode () <> Tel.Progress.Off
         then begin
           let elapsed_s = float_of_int (Tel.elapsed_ns () - started) /. 1e9 in
           Tel.Progress.cycles ~cycles:e
             ~cycles_per_sec:
               (if elapsed_s <= 0.0 then 0.0 else float_of_int e /. elapsed_s)
             ~engine:(Sm.engine_name sms.(0))
         end
       end;
       b := e
     done
   with exn ->
     stop_workers ();
     raise exn);
  stop_workers ();
  let result =
    match (!error, !finished) with
    | Some e, _ -> Stdlib.Error e
    | None, Some cycles ->
      for i = 0 to num_sms - 1 do
        settle i cycles
      done;
      drain ();
      Ok (assemble ~cycles ~tbs_per_sm kernel sms)
    | None, None -> assert false
  in
  let elided = Array.fold_left ( + ) 0 elided / max 1 num_sms in
  if elided > 0 then Tel.incr ~by:elided "ff.cycles_elided";
  if !tel_epochs > 0 then Tel.incr ~by:!tel_epochs "shard.epochs";
  if !tel_pauses > 0 then Tel.incr ~by:!tel_pauses "shard.pauses";
  if !tel_batched > 0 then Tel.incr ~by:!tel_batched "shard.dram_batched";
  if !tel_arms > 0 then Tel.incr ~by:!tel_arms "watchdog.arms";
  (* straggler report: a shard that dominates the epoch wall time caps
     the speedup; say so when someone is watching progress *)
  (if Tel.Progress.mode () <> Tel.Progress.Off && nworkers > 1 then begin
     let total = Array.fold_left ( + ) 0 worker_busy_ns in
     let busiest = ref 0 in
     Array.iteri
       (fun w ns -> if ns > worker_busy_ns.(!busiest) then busiest := w)
       worker_busy_ns;
     if total > 0 then begin
       let share =
         float_of_int worker_busy_ns.(!busiest) /. float_of_int total
       in
       if share > 1.5 /. float_of_int nworkers then
         Tel.Progress.warn
           (Printf.sprintf
              "shard straggler: domain %d carried %.0f%% of %d domains' \
               simulation time"
              !busiest (100.0 *. share) nworkers)
     end
   end);
  result

let run ?(cfg = Config.default) ?(sink = Obs.Sink.null) ?sample_interval
    ?deadline ?(pcstat = false) factory (kinfo : Kinfo.t) (trace : Record.t) =
  let sp = Tel.begin_span "gpu.run" in
  match
    simulate ~cfg ~sink ~sample_interval ~deadline ~pcstat factory kinfo trace
  with
  | Ok r as res ->
    Tel.end_span
      ~args:[ ("engine", Tel.Str r.engine); ("cycles", Tel.Int r.cycles) ]
      sp;
    res
  | Stdlib.Error _ as res ->
    Tel.end_span ~args:[ ("error", Tel.Bool true) ] sp;
    res
  | exception e ->
    Tel.end_span ~args:[ ("raised", Tel.Bool true) ] sp;
    raise e

let run_exn ?cfg ?sink ?sample_interval ?deadline ?pcstat factory kinfo trace
    =
  match
    run ?cfg ?sink ?sample_interval ?deadline ?pcstat factory kinfo trace
  with
  | Ok r -> r
  | Stdlib.Error e -> raise (Sim_error.Simulation_error e)

let ipc r =
  if r.cycles = 0 then 0.0
  else float_of_int r.stats.Stats.issued /. float_of_int r.cycles

let outputs r =
  let kvs l =
    String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ string_of_int v) l)
  in
  let per_sm f xs = String.concat "\n" (Array.to_list (Array.map f xs)) in
  let stats s = kvs (Stats.to_assoc s) in
  let attrib a = kvs (Obs.Attrib.to_assoc a) in
  let ledger l = Obs.Json.to_string (Obs.Ledger.to_json l) in
  let pcstat p = Obs.Json.to_string (Obs.Pcstat.to_json p) in
  let skip (pc, (e : Obs.Pcstat.skip_entry)) =
    Printf.sprintf
      "%d:allocs=%d,hits=%d,parks=%d,load_flushes=%d,barrier_flushes=%d,\
       lifetime=%d"
      pc e.sk_allocs e.sk_hits e.sk_parks e.sk_load_flushes
      e.sk_barrier_flushes e.sk_lifetime
  in
  [
    ("cycles", string_of_int r.cycles);
    ("engine", r.engine);
    ("tbs_per_sm", string_of_int r.tbs_per_sm);
    ("stats", stats r.stats);
    ("per-SM stats", per_sm stats r.per_sm);
    ("attribution", attrib r.attribution);
    ("per-SM attribution", per_sm attrib r.per_sm_attribution);
    ("ledger", ledger r.ledger);
    ("per-SM ledger", per_sm ledger r.per_sm_ledger);
    ("per-PC", Option.fold ~none:"" ~some:pcstat r.pcstat);
    ("per-SM per-PC", per_sm pcstat r.per_sm_pcstat);
    ("skip telemetry", String.concat "\n" (List.map skip r.skip_telemetry));
    ("series", Obs.Export.csv_of_series r.series);
  ]

type difference = { part : string; offset : int; report : string }

let first_difference ~labels:(la, lb) a b =
  let w = 1 + max (String.length la) (String.length lb) in
  List.find_map
    (fun ((part, x), (_, y)) ->
      if String.equal x y then None
      else begin
        let n = min (String.length x) (String.length y) in
        let i = ref 0 in
        while !i < n && x.[!i] = y.[!i] do
          incr i
        done;
        let window s =
          let lo = max 0 (!i - 60) in
          String.sub s lo (min 140 (String.length s - lo))
          |> String.split_on_char '\n' |> String.concat "\\n"
        in
        let report =
          Printf.sprintf "%s diverges at byte %d:\n  %-*s %s\n  %-*s %s" part
            !i w (la ^ ":") (window x) w (lb ^ ":") (window y)
        in
        Some { part; offset = !i; report }
      end)
    (List.combine (outputs a) (outputs b))

(* Each SM steps once per simulated cycle and classifies that cycle into
   exactly one bucket, so this can only fail if the model drifts. When
   per-PC profiling was on, the same classification also charged exactly
   one (PC row, bucket) pair per cycle, so each SM's per-PC column sums
   must reproduce its bucket totals — the cross-layer conservation
   invariant behind [darsie annotate]. *)
let check_attribution r =
  let bad = ref [] in
  Array.iteri
    (fun i a ->
      let tot = Obs.Attrib.total a in
      if tot <> r.cycles then bad := (i, tot) :: !bad)
    r.per_sm_attribution;
  match List.rev !bad with
  | (sm, tot) :: _ ->
    Error
      (Printf.sprintf
         "stall attribution does not sum to cycles on SM %d: %d buckets vs %d \
          cycles (engine %s)"
         sm tot r.cycles r.engine)
  | [] ->
    let mismatch = ref None in
    Array.iteri
      (fun i p ->
        if !mismatch = None then begin
          let per_pc = Obs.Attrib.to_assoc (Obs.Pcstat.bucket_totals p) in
          let per_sm = Obs.Attrib.to_assoc r.per_sm_attribution.(i) in
          List.iter2
            (fun (name, pc_tot) (_, sm_tot) ->
              if !mismatch = None && pc_tot <> sm_tot then
                mismatch := Some (i, name, pc_tot, sm_tot))
            per_pc per_sm
        end)
      r.per_sm_pcstat;
    (match !mismatch with
    | None -> Ok ()
    | Some (sm, name, pc_tot, sm_tot) ->
      Error
        (Printf.sprintf
           "per-PC stall charges diverge from SM attribution on SM %d, \
            bucket %s: %d per-PC vs %d per-SM (engine %s)"
           sm name pc_tot sm_tot r.engine))

(* The skip-ledger conservation invariant, enforced like the attribution
   one: per SM and per PC the eligible dynamic occurrences must equal the
   recorded fates, and the run-wide ledger must reproduce the per-SM sum
   exactly. *)
let check_ledger r =
  let bad = ref None in
  Array.iteri
    (fun i l ->
      if !bad = None then
        match Obs.Ledger.check l with
        | Ok () -> ()
        | Error msg -> bad := Some (Printf.sprintf "SM %d: %s" i msg))
    r.per_sm_ledger;
  match !bad with
  | Some msg -> Error (Printf.sprintf "%s (engine %s)" msg r.engine)
  | None -> (
    match Obs.Ledger.check r.ledger with
    | Error msg -> Error (Printf.sprintf "aggregate: %s (engine %s)" msg r.engine)
    | Ok () ->
      let sum_expected =
        Array.fold_left
          (fun acc l -> acc + Obs.Ledger.expected_total l)
          0 r.per_sm_ledger
      in
      if sum_expected <> Obs.Ledger.expected_total r.ledger then
        Error
          (Printf.sprintf
             "aggregate ledger diverges from per-SM sum: %d vs %d eligible \
              occurrences (engine %s)"
             (Obs.Ledger.expected_total r.ledger)
             sum_expected r.engine)
      else Ok ())

let check_invariants rs =
  List.find_map
    (fun (kind, check) ->
      List.find_map
        (fun r ->
          match check r with Ok () -> None | Error msg -> Some (kind, msg))
        rs)
    [ ("attribution", check_attribution); ("ledger", check_ledger) ]
