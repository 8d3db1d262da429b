(* Differential tests for the cycle loop. [Gpu.run] advances the SM
   array in epochs — sharded across OCaml domains, with per-SM wake
   calendars (fast-forward) and DRAM, dispatch and events replayed at
   barriers. Here it must reproduce a lockstep reference that steps
   every SM every cycle: the same simulated outputs ([Gpu.outputs]) and
   recorded event stream, at 1, 2 and 4 domains with fast-forward on
   and off, on crafted kernels and every app x machine; the watchdog /
   cycle-bound error paths must fire at exactly the reference's cycle
   with the same attribution. *)

open Darsie_isa
open Darsie_timing
module Obs = Darsie_obs
module Record = Darsie_trace.Record
module Sim_error = Darsie_check.Sim_error
module W = Darsie_workloads.Workload
module Suite = Darsie_harness.Suite

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

let fidelity cfg = { cfg with Config.issue_width = 2; mshrs = 8 }

(* ------------------------------------------------------------------ *)
(* The lockstep reference                                              *)
(* ------------------------------------------------------------------ *)

type outcome =
  | Finished of int  (** cycles *)
  | Failed of string * int  (** error kind, diagnostic cycle *)

(* The plainest cycle loop: every SM steps every cycle in SM order, then
   the deferred DRAM queue is committed and the dispatch scan fills free
   slots. The deadlock watchdog fires when the summed progress tokens
   stay frozen with nothing in flight for [watchdog_cycles] per-cycle
   checks (the first check only records the token), and the cycle bound
   when cycle [max_cycles + 1] would begin. The SMs are folded into a
   result exactly as [Gpu.run] folds its own; after a failure only its
   attribution is compared. After every TB launch and every step, each
   SM's ready bits and its indexes of occupied slots and resident warps
   must equal their recomputation from scratch ([Sm.check_derived]). *)
let lockstep ~cfg ~sink ~sample_interval factory (kinfo : Kinfo.t)
    (trace : Record.t) =
  let warps_per_tb = Record.warps_per_tb trace in
  let slots = Gpu.occupancy cfg kinfo.Kinfo.kernel ~warps_per_tb in
  let n = Array.length kinfo.Kinfo.kernel.Kernel.insts in
  let sms =
    Array.init cfg.Config.num_sms (fun i ->
        let series =
          Obs.Series.create ~interval:sample_interval ~names:Sm.sample_names
        in
        Sm.create ~sm_id:i ~sink ~series ~pcstat:(Obs.Pcstat.create ~n) cfg
          kinfo factory ~slots ~warps_per_tb)
  in
  let dram =
    Mem_model.Dram.create ~txn_cycles:cfg.Config.dram_txn_cycles
      ~latency:cfg.Config.dram_lat
  in
  let check sm =
    match Sm.check_derived sm with
    | Ok () -> ()
    | Error msg -> Alcotest.failf "derived state: %s" msg
  in
  let ntbs = Record.num_tbs trace and next_tb = ref 0 in
  let dispatch () =
    Array.iter
      (fun sm ->
        while !next_tb < ntbs && Sm.can_accept sm do
          Sm.launch_tb sm ~tb_id:!next_tb ~traces:trace.Record.tbs.(!next_tb);
          check sm;
          incr next_tb
        done)
      sms
  in
  let sum f = Array.fold_left (fun acc sm -> acc + f sm) 0 sms in
  let cycle = ref 0 and progress = ref (-1) and idle = ref 0 in
  let outcome = ref None in
  dispatch ();
  while !outcome = None do
    if not (Array.exists Sm.busy sms || !next_tb < ntbs) then
      outcome := Some (Finished !cycle)
    else if !cycle = cfg.Config.max_cycles then
      outcome := Some (Failed ("cycle_bound", !cycle + 1))
    else begin
      incr cycle;
      Array.iter (fun sm -> Sm.step sm; check sm) sms;
      ignore (Sm.commit_epoch ~dram sms);
      dispatch ();
      let token = sum Sm.progress_token in
      if token <> !progress || sum Sm.inflight_count > 0 then begin
        progress := token;
        idle := 0
      end
      else begin
        incr idle;
        if !idle = cfg.Config.watchdog_cycles then
          outcome := Some (Failed ("deadlock", !cycle))
      end
    end
  done;
  ( Option.get !outcome,
    Gpu.assemble ~cycles:!cycle ~tbs_per_sm:slots kinfo.Kinfo.kernel sms )

(* ------------------------------------------------------------------ *)
(* Checks                                                              *)
(* ------------------------------------------------------------------ *)

(* Recorded events are compared as lists; on mismatch the first
   differing event is rendered. *)
let check_events label expected actual =
  if expected <> actual then begin
    let rec first i = function
      | a :: xs, b :: ys ->
        if a = b then first (i + 1) (xs, ys) else (i, Some a, Some b)
      | a :: _, [] -> (i, Some a, None)
      | [], b :: _ -> (i, None, Some b)
      | [], [] -> (i, None, None)
    in
    let i, a, b = first 0 (expected, actual) in
    let show = function
      | Some e -> Format.asprintf "%a" Obs.Event.pp e
      | None -> "end of stream"
    in
    Alcotest.failf "%s: event %d differs:\n  expected: %s\n  run:      %s"
      label i (show a) (show b)
  end

(* Conservation, plus a sanity bound the lockstep reference cannot
   give: it shares the SM model, so a latency noted against a
   placeholder completion would be equally wrong on both sides. *)
let invariants label r =
  (match Gpu.check_attribution r with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "%s: attribution invariant: %s" label msg);
  (match Gpu.check_ledger r with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "%s: ledger invariant: %s" label msg);
  Option.iter
    (fun p ->
      for pc = 0 to Obs.Pcstat.n p - 1 do
        let lat = Obs.Pcstat.mem_lat_max p ~pc in
        if lat < 0 || lat > r.Gpu.cycles then
          Alcotest.failf "%s: PC %d memory latency %d outside [0, %d]" label pc
            lat r.Gpu.cycles
      done)
    r.Gpu.pcstat

(* ------------------------------------------------------------------ *)
(* Differential harness                                                *)
(* ------------------------------------------------------------------ *)

let configs =
  [ (1, true); (2, true); (4, true); (1, false); (2, false); (4, false) ]

(* Run the lockstep reference once, then [Gpu.run] at every (domains,
   fast-forward) pair, with the per-PC profile, a counter series and an
   event recorder on, and demand identical simulated outputs — or, when
   the reference failed, the same error kind, diagnostic cycle and
   stall attribution at the failure. Fast-forwarded spans are
   bulk-charged without per-cycle events, so with ff on the event stream
   is held to the first ff-on run's instead (it must not depend on the
   domain count). Returns the reference outcome and result for scenario
   assertions. *)
let against_lockstep ?(cfg = Config.default) ?(engine = Engine.base_factory)
    ?(sample_interval = 64) ?(configs = configs) ~label (kinfo, trace) =
  let rec_ = Obs.Recorder.create () in
  let outcome, reference =
    lockstep ~cfg ~sink:(Obs.Recorder.sink rec_) ~sample_interval engine kinfo
      trace
  in
  let stepped_events = Obs.Recorder.events rec_ and ff_events = ref None in
  List.iter
    (fun (n, ff) ->
      let cfg = { cfg with Config.sm_domains = n; fast_forward = ff } in
      let label = Printf.sprintf "%s, %d domains, ff %b" label n ff in
      let rec_ = Obs.Recorder.create () in
      (match
         ( outcome,
           Gpu.run ~cfg ~sink:(Obs.Recorder.sink rec_) ~sample_interval
             ~pcstat:true engine kinfo trace )
       with
      | Finished _, Ok r -> (
        invariants label r;
        match
          Gpu.first_difference ~labels:("lockstep", "run") reference r
        with
        | Some d -> Alcotest.failf "%s: %s" label d.Gpu.report
        | None -> ())
      | Failed (kind, cycle), Error e ->
        let d = Option.get (Sim_error.diagnostic e) in
        Alcotest.(check (triple string int (list (pair string int))))
          (label ^ ": failure kind, cycle and attribution")
          (kind, cycle, Obs.Attrib.to_assoc reference.Gpu.attribution)
          (Sim_error.kind_name e, d.Sim_error.d_cycle,
           d.Sim_error.d_attribution)
      | _ ->
        Alcotest.failf
          "%s: the lockstep reference and the run ended differently" label);
      let events = Obs.Recorder.events rec_ in
      let expected_events =
        if not ff then stepped_events
        else
          match !ff_events with
          | Some e -> e
          | None ->
            ff_events := Some events;
            events
      in
      check_events label expected_events events)
    configs;
  (outcome, reference)

(* ------------------------------------------------------------------ *)
(* Crafted kernels                                                     *)
(* ------------------------------------------------------------------ *)

let prep ?(grid = Kernel.dim3 1) ?(block = Kernel.dim3 32) ktext ~nparams =
  let k = Parser.parse_kernel ktext in
  let mem = Darsie_emu.Memory.create () in
  let params =
    Array.init nparams (fun _ ->
        let b = Darsie_emu.Memory.alloc mem 65536 in
        Darsie_emu.Memory.write_i32s mem b (Array.init 16384 (fun i -> i));
        b)
  in
  let launch = Kernel.launch k ~grid ~block ~params in
  (Kinfo.make ~warp_size:32 launch, Record.generate mem launch)

(* Every thread block hammers the same DRAM channel: per-TB disjoint
   lines keep many requests in flight at once, and the final read of a
   line another pass stored to makes the result sensitive to the exact
   (cycle, SM) order the channel serviced requests in. *)
let contention_kernel =
  {|
.kernel contend
.params 1
  mul.lo.u32 %r0, %ctaid.x, 2048;
  mul.lo.u32 %r1, %tid.x, 4;
  add.u32 %r2, %r0, %r1;
  add.u32 %r3, %r2, %param0;
  ld.global.u32 %r4, [%r3+0];
  add.u32 %r5, %r4, 1;
  st.global.u32 [%r3+0], %r5;
  bar.sync;
  ld.global.u32 %r6, [%r3+0];
  add.u32 %r7, %r6, %r5;
  exit;
|}

let dram_kernel =
  {|
.kernel dram
.params 1
  mul.lo.u32 %r0, %tid.x, 4;
  add.u32 %r1, %r0, %param0;
  ld.global.u32 %r2, [%r1+0];
  add.u32 %r3, %r2, 1;
  exit;
|}

let finished = function
  | Finished cycles, _ -> cycles
  | Failed (kind, _), _ -> Alcotest.failf "lockstep reference failed: %s" kind

let test_dram_contention () =
  let case =
    prep ~grid:(Kernel.dim3 16) ~block:(Kernel.dim3 128) contention_kernel
      ~nparams:1
  in
  let _, r = against_lockstep ~label:"contention" case in
  check_bool "contention scenario really hits DRAM" true
    (r.Gpu.stats.Stats.dram_transactions > 100)

let test_tb_turnover () =
  (* many more TBs than slots: retirements open dispatch scans mid-epoch,
     which the barrier must replay in exact per-cycle order *)
  let case = prep ~grid:(Kernel.dim3 64) dram_kernel ~nparams:1 in
  check_bool "TB turnover happened" true
    (finished (against_lockstep ~label:"turnover" case) > 200)

let test_fidelity_knobs () =
  let case =
    prep ~grid:(Kernel.dim3 16) ~block:(Kernel.dim3 128) contention_kernel
      ~nparams:1
  in
  ignore
    (finished
       (against_lockstep ~cfg:(fidelity Config.default) ~label:"fidelity" case))

let test_auto_and_slack_knobs () =
  (* sm_domains 0 auto-sizes; the epoch slack is the l1_lat + dram_lat
     bound, and short latencies make short epochs that still agree *)
  let case = prep ~grid:(Kernel.dim3 8) dram_kernel ~nparams:1 in
  let go cfg configs =
    ignore (against_lockstep ~cfg ~configs ~label:"knobs" case)
  in
  go Config.default [ (0, true); (0, false) ];
  (* a seven-cycle slack *)
  go { Config.default with Config.l1_lat = 2; dram_lat = 5 }
    [ (3, true); (3, false) ];
  (* degenerate latencies: the slack bound falls to one cycle *)
  go { Config.default with Config.l1_lat = 0; dram_lat = 0 } configs

(* A DRAM load issued inside an epoch competes for a drained SM's stall
   blame with a slow SFU op that finishes after it: the blamed PC is
   only known once the barrier patches the load's real completion. *)
let blame_kernel =
  {|
.kernel blame
.params 1
  mul.lo.u32 %r0, %tid.x, 4;
  add.u32 %r1, %r0, %param0;
  ld.global.u32 %r2, [%r1+0];
  div.u32 %r3, %r0, 3;
  exit;
|}

let test_deferred_blame () =
  let case = prep ~grid:(Kernel.dim3 8) blame_kernel ~nparams:1 in
  ignore
    (finished
       (against_lockstep
          ~cfg:{ Config.default with Config.sfu_lat = 300 }
          ~label:"blame" case))

(* ------------------------------------------------------------------ *)
(* Error paths: same failure at the same cycle as the reference        *)
(* ------------------------------------------------------------------ *)

let stuck_factory ki cfg stats =
  let e = Engine.base_factory ki cfg stats in
  {
    e with
    Engine.on_tb_launch =
      (fun ~tb_slot:_ ~warps ->
        Array.iter (fun w -> w.Engine.fetch_ok <- false) warps);
  }

let test_watchdog_parity () =
  let case = prep dram_kernel ~nparams:1 in
  List.iter
    (fun watchdog_cycles ->
      let cfg = { Config.default with Config.watchdog_cycles } in
      match against_lockstep ~cfg ~engine:stuck_factory ~label:"stuck" case with
      | Failed ("deadlock", _), _ -> ()
      | _ -> Alcotest.fail "stuck engine should deadlock")
    [ 200; 1000 ]

let test_cycle_bound_parity () =
  let cfg =
    { Config.default with Config.watchdog_cycles = 0; max_cycles = 100 }
  in
  match against_lockstep ~cfg ~label:"bound" (prep dram_kernel ~nparams:1) with
  | Failed ("cycle_bound", c), _ -> check_int "fails entering max + 1" 101 c
  | _ -> Alcotest.fail "should hit the cycle bound"

(* ------------------------------------------------------------------ *)
(* Whole-suite differential: 13 apps x 7 machines                      *)
(* ------------------------------------------------------------------ *)

let apps = lazy (List.map Suite.load_app Darsie_workloads.Registry.all)

(* One cell off the matrix's schedulers and gates: LRR, with the shared
   replay port on, so a ready warp is held by a structural gate. FW is
   the Table-1 app whose shared accesses conflict at 32 banks. *)
let test_lrr_shared_banks () =
  let app = Suite.load_app (Option.get (Darsie_workloads.Registry.find "FW")) in
  let cfg, engine =
    Suite.setup
      ~cfg:{ Config.default with Config.scheduler = Config.Lrr; smem_banks = 32 }
      Suite.Darsie
  in
  let _, r =
    against_lockstep ~cfg ~engine ~sample_interval:512
      ~configs:[ (2, true); (1, false) ] ~label:"FW/DARSIE, LRR, 32 banks"
      (app.Suite.kinfo, app.Suite.trace)
  in
  check_bool "the replay port was busy" true
    (r.Gpu.stats.Stats.smem_replay_cycles > 0)

(* Cells run on a pool of the host's cores; each cell's runs stay in
   order, so only the schedule depends on the pool. *)
let suite_differential ?(cfg = Config.default) ~configs () =
  let cells =
    List.concat_map
      (fun app -> List.map (fun machine -> (app, machine)) Suite.all_machines)
      (Lazy.force apps)
  in
  Darsie_harness.Parallel.map
    (fun ((app : Suite.app), machine) ->
      let cfg, engine = Suite.setup ~cfg machine in
      let label =
        Printf.sprintf "%s/%s" app.Suite.workload.W.abbr
          (Suite.machine_name machine)
      in
      ignore
        (finished
           (against_lockstep ~cfg ~engine ~sample_interval:512 ~configs ~label
              (app.Suite.kinfo, app.Suite.trace))))
    cells
  |> ignore

let () =
  Alcotest.run "shard"
    [
      ( "crafted",
        [
          Alcotest.test_case "dram contention" `Quick test_dram_contention;
          Alcotest.test_case "tb turnover" `Quick test_tb_turnover;
          Alcotest.test_case "fidelity knobs" `Quick test_fidelity_knobs;
          Alcotest.test_case "auto domains and slack" `Quick
            test_auto_and_slack_knobs;
          Alcotest.test_case "blame behind a pending load" `Quick
            test_deferred_blame;
        ] );
      ( "error-paths",
        [
          Alcotest.test_case "watchdog parity" `Quick test_watchdog_parity;
          Alcotest.test_case "cycle bound parity" `Quick
            test_cycle_bound_parity;
        ] );
      ( "differential",
        [
          Alcotest.test_case "13 apps x 7 machines, 2 domains" `Quick
            (suite_differential ~configs:[ (1, true); (2, true); (2, false) ]);
          Alcotest.test_case "13 apps x 7 machines, 4 domains, no ff" `Quick
            (suite_differential ~configs:[ (4, false); (1, false); (4, true) ]);
          Alcotest.test_case "13 apps x 7 machines, 4 domains, fidelity"
            `Quick
            (suite_differential ~cfg:(fidelity Config.default)
               ~configs:[ (4, true); (1, false) ]);
          Alcotest.test_case "FW on DARSIE, LRR, 32 shared banks" `Quick
            test_lrr_shared_banks;
        ] );
    ]
