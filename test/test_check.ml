(* Tests for the robustness layer: typed simulation errors and their exit
   codes, the timing-model watchdog and budgets, the emulator's strict
   barrier-deadlock reporting, the fault injector, the differential
   oracle, and crash-isolated suite checking. *)

open Darsie_isa
open Darsie_timing
module W = Darsie_workloads.Workload
module Interp = Darsie_emu.Interp
module Memory = Darsie_emu.Memory
module Sim_error = Darsie_check.Sim_error
module Injector = Darsie_check.Injector
module Oracle = Darsie_check.Oracle
module Checker = Darsie_harness.Checker
module Obs = Darsie_obs

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

let parse = Parser.parse_kernel

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

(* ------------------------------------------------------------------ *)
(* Sim_error: exit codes, kinds, summaries                             *)
(* ------------------------------------------------------------------ *)

let sample_errors =
  [
    Sim_error.Invariant_violation { message = "sum off" };
    Sim_error.Deadlock
      { message = "stuck"; diag = Sim_error.empty_diagnostic };
    Sim_error.Cycle_bound
      { bound = 10; message = "over"; diag = Sim_error.empty_diagnostic };
    Sim_error.Wall_timeout { budget_s = 1.0; cycle = 42; message = "slow" };
    Sim_error.Memory_fault { message = "oob" };
    Sim_error.Oracle_mismatch
      { app = "MM"; machine = "DARSIE"; mismatches = 3; message = "diverged" };
  ]

let test_exit_codes () =
  let codes = List.map Sim_error.exit_code sample_errors in
  Alcotest.(check (list int)) "documented codes" [ 2; 3; 4; 5; 6; 7 ] codes;
  check_int "codes distinct" (List.length codes)
    (List.length (List.sort_uniq compare codes));
  let kinds = List.map Sim_error.kind_name sample_errors in
  check_int "kinds distinct" (List.length kinds)
    (List.length (List.sort_uniq compare kinds));
  List.iter
    (fun e ->
      let s = Sim_error.summary e in
      check_bool "summary single line" false (String.contains s '\n');
      check_bool "summary names the kind" true
        (contains ~sub:(Sim_error.kind_name e) s))
    sample_errors

(* ------------------------------------------------------------------ *)
(* Timing-model watchdog and budgets                                   *)
(* ------------------------------------------------------------------ *)

(* An engine that never lets any warp fetch: the pipeline makes no
   progress from cycle 0, which only the watchdog can catch. *)
let stuck_factory ki cfg stats =
  let e = Engine.base_factory ki cfg stats in
  {
    e with
    Engine.on_tb_launch =
      (fun ~tb_slot:_ ~warps ->
        Array.iter (fun w -> w.Engine.fetch_ok <- false) warps);
  }

let alu_kernel =
  {|
.kernel alu
  mov.u32 %r0, %tid.x;
  add.u32 %r1, %r0, 1;
  add.u32 %r2, %r1, 2;
  exit;
|}

let small_trace () =
  let k = parse alu_kernel in
  let mem = Memory.create () in
  let launch = Kernel.launch k ~grid:(Kernel.dim3 2) ~block:(Kernel.dim3 64)
      ~params:[||] in
  let kinfo = Kinfo.make ~warp_size:32 launch in
  (kinfo, Darsie_trace.Record.generate mem launch)

let test_watchdog_deadlock () =
  let kinfo, trace = small_trace () in
  let cfg = { Config.default with Config.watchdog_cycles = 200 } in
  match Gpu.run ~cfg stuck_factory kinfo trace with
  | Ok _ -> Alcotest.fail "stuck engine should deadlock"
  | Error (Sim_error.Deadlock { diag; _ }) ->
    check_bool "fires shortly after the window" true (diag.Sim_error.d_cycle < 1000);
    check_bool "warp snapshots present" true (diag.Sim_error.d_warps <> []);
    check_bool "a warp is fetch-gated" true
      (List.exists
         (fun w -> w.Sim_error.ws_state = "fetch_gated")
         diag.Sim_error.d_warps);
    check_bool "attribution captured" true (diag.Sim_error.d_attribution <> [])
  | Error e -> Alcotest.failf "expected deadlock, got %s" (Sim_error.kind_name e)

let test_cycle_bound () =
  let kinfo, trace = small_trace () in
  let cfg =
    { Config.default with Config.watchdog_cycles = 0; max_cycles = 300 }
  in
  match Gpu.run ~cfg stuck_factory kinfo trace with
  | Error (Sim_error.Cycle_bound { bound; _ }) -> check_int "bound" 300 bound
  | Ok _ -> Alcotest.fail "should hit the cycle bound"
  | Error e ->
    Alcotest.failf "expected cycle_bound, got %s" (Sim_error.kind_name e)

let test_wall_timeout () =
  let kinfo, trace = small_trace () in
  let cfg = { Config.default with Config.watchdog_cycles = 0 } in
  (* a pre-expired budget trips at the first wall-clock check *)
  match Gpu.run ~cfg ~deadline:(-1.0) stuck_factory kinfo trace with
  | Error (Sim_error.Wall_timeout { cycle; _ }) ->
    check_bool "reports the failing cycle" true (cycle > 0)
  | Ok _ -> Alcotest.fail "should time out"
  | Error e ->
    Alcotest.failf "expected wall_timeout, got %s" (Sim_error.kind_name e)

(* The deadline is wall-clock time of the run itself: a budget of 1.5x
   the run's solo wall time must still suffice while another domain
   spins (processor time summed over domains would exhaust it at about
   0.75x). Needs a second core; a loaded host gets three attempts. *)
let test_wall_budget_beside_busy_domain () =
  if Domain.recommended_domain_count () < 2 then Alcotest.skip ();
  let kinfo, trace = small_trace () in
  let cfg =
    {
      Config.default with
      Config.watchdog_cycles = 0;
      max_cycles = 400_000;
      fast_forward = false;
    }
  in
  let run ?deadline () = Gpu.run ~cfg ?deadline stuck_factory kinfo trace in
  let attempt () =
    let t0 = Unix.gettimeofday () in
    ignore (run ());
    let solo = Unix.gettimeofday () -. t0 in
    let stop = Atomic.make false in
    let spinner =
      Domain.spawn (fun () ->
          while not (Atomic.get stop) do
            Domain.cpu_relax ()
          done)
    in
    let outcome = run ~deadline:(1.5 *. solo) () in
    Atomic.set stop true;
    Domain.join spinner;
    match outcome with
    | Error (Sim_error.Cycle_bound _) -> true
    | Error (Sim_error.Wall_timeout _) -> false
    | _ -> Alcotest.fail "expected the run to end at its cycle bound"
  in
  check_bool "budgeted run completes beside a spinning domain" true
    (attempt () || attempt () || attempt ())

(* The failure dump counts a branch sync as open while it has arrivals
   and no release. LIB stopped at 3,000 cycles on DARSIE has one such
   sync across its resident TBs; released entries (104 of them there)
   stay in the tables until a barrier and must not be counted. *)
let test_open_syncs_note () =
  let module Suite = Darsie_harness.Suite in
  let app =
    match Darsie_workloads.Registry.find "LIB" with
    | Some w -> Suite.load_app w
    | None -> Alcotest.fail "no LIB workload"
  in
  let cfg =
    { Config.default with Config.watchdog_cycles = 0; max_cycles = 3000 }
  in
  match Suite.run_app_checked ~cfg app Suite.Darsie with
  | Error (Sim_error.Cycle_bound { diag; _ }) ->
    check_int "open_syncs" 1 (List.assoc "open_syncs" diag.Sim_error.d_notes)
  | Ok _ -> Alcotest.fail "should hit the cycle bound"
  | Error e ->
    Alcotest.failf "expected cycle_bound, got %s" (Sim_error.kind_name e)

let test_clean_run_still_ok () =
  let kinfo, trace = small_trace () in
  let cfg = { Config.default with Config.watchdog_cycles = 50 } in
  match Gpu.run ~cfg Engine.base_factory kinfo trace with
  | Ok r -> check_bool "finishes" true (r.Gpu.cycles > 0)
  | Error e -> Alcotest.failf "clean run failed: %s" (Sim_error.summary e)

(* ------------------------------------------------------------------ *)
(* Emulator barrier-deadlock reporting                                 *)
(* ------------------------------------------------------------------ *)

let test_strict_barrier_deadlock () =
  (* warp 0 exits early; warp 1 waits at the barrier forever *)
  let k =
    parse
      {|
.kernel split
  setp.lt.s32 %p0, %tid.x, 32;
@%p0 bra out;
  bar.sync;
out:
  exit;
|}
  in
  let mem = Memory.create () in
  let launch =
    Kernel.launch k ~grid:(Kernel.dim3 1) ~block:(Kernel.dim3 64) ~params:[||]
  in
  match Interp.run_result ~strict_barriers:true mem launch with
  | Ok _ -> Alcotest.fail "strict barriers should deadlock"
  | Error (Interp.Barrier_deadlock { tb; warps } as err) ->
    check_int "tb 0" 0 tb;
    check_int "both warps reported" 2 (List.length warps);
    let parked =
      List.filter (fun w -> w.Interp.park_state = Interp.At_barrier) warps
    in
    let exited =
      List.filter (fun w -> w.Interp.park_state = Interp.Exited) warps
    in
    check_int "one warp parked" 1 (List.length parked);
    check_int "one warp exited" 1 (List.length exited);
    let p = List.hd parked in
    check_int "parked warp is warp 1" 1 p.Interp.park_warp;
    check_bool "parked at the barrier pc" true (p.Interp.park_barrier_pc >= 0);
    (match Sim_error.of_emu err with
    | Sim_error.Deadlock { message; _ } ->
      check_bool "message names the parked warp" true
        (contains ~sub:"warp 1" message)
    | e -> Alcotest.failf "of_emu: expected deadlock, got %s"
             (Sim_error.kind_name e))
  | Error e -> Alcotest.failf "expected barrier deadlock, got %s"
                 (Interp.error_message e)

let test_permissive_barrier_releases () =
  let k =
    parse
      {|
.kernel split
  setp.lt.s32 %p0, %tid.x, 32;
@%p0 bra out;
  bar.sync;
out:
  exit;
|}
  in
  let mem = Memory.create () in
  let launch =
    Kernel.launch k ~grid:(Kernel.dim3 1) ~block:(Kernel.dim3 64) ~params:[||]
  in
  match Interp.run_result mem launch with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "permissive run failed: %s" (Interp.error_message e)

(* ------------------------------------------------------------------ *)
(* Skip-table invariants                                               *)
(* ------------------------------------------------------------------ *)

let test_skip_table_invariants () =
  let module St = Darsie_core.Skip_table in
  let t = St.create ~pcs:8 ~max_entries:8 ~rename_regs:32 in
  let ok label = function
    | Ok () -> ()
    | Error msg -> Alcotest.failf "%s: %s" label msg
  in
  ok "fresh table" (St.check_invariants t);
  St.allocate t ~pc:3 ~occ:0 ~leader:0 ~mem_dep:false;
  St.allocate t ~pc:3 ~occ:1 ~leader:1 ~mem_dep:true;
  St.allocate t ~pc:7 ~occ:0 ~leader:2 ~mem_dep:false;
  ok "after allocation" (St.check_invariants t);
  St.mark_writeback t ~pc:3 ~occ:0 ~majority:0b1111;
  St.mark_passed t ~pc:3 ~occ:0 ~warp:1 ~majority:0b1111;
  ok "after partial passes" (St.check_invariants t);
  St.flush_loads t ~kind:`Store;
  ok "after load flush" (St.check_invariants t)

(* ------------------------------------------------------------------ *)
(* Injector planning                                                   *)
(* ------------------------------------------------------------------ *)

let test_injector_plan () =
  let site i = { Injector.s_tb = 0; s_warp = i; s_inst = 1; s_occ = 0 } in
  let cands =
    {
      Injector.flip_sites = List.init 4 site;
      poison_sites = List.init 5 (fun i -> site (10 + i));
      skip_sites = List.init 3 (fun i -> site (20 + i));
    }
  in
  check_int "total" 12 (Injector.total cands);
  let p1 = Injector.plan ~seed:42 ~count:6 cands in
  let p2 = Injector.plan ~seed:42 ~count:6 cands in
  check_bool "same seed, same plan" true (p1 = p2);
  check_int "asked count honoured" 6 (List.length p1);
  check_bool "round-robin covers every kind" true
    (List.for_all
       (fun k -> List.exists (fun f -> f.Injector.kind = k) p1)
       Injector.all_kinds);
  let keys = List.map (fun f -> (f.Injector.kind, f.Injector.site)) p1 in
  check_int "no site reused per kind" (List.length keys)
    (List.length (List.sort_uniq compare keys));
  check_int "exhausts candidates gracefully" 12
    (List.length (Injector.plan ~seed:1 ~count:100 cands));
  check_int "no candidates, no faults" 0
    (List.length
       (Injector.plan ~seed:1 ~count:5
          { Injector.flip_sites = []; poison_sites = []; skip_sites = [] }))

(* ------------------------------------------------------------------ *)
(* Differential oracle                                                 *)
(* ------------------------------------------------------------------ *)

let test_oracle_clean_suite () =
  List.iter
    (fun (w : W.t) ->
      let r = Oracle.check w in
      if not (Oracle.passed r) then
        Alcotest.failf "%s: clean oracle found %d mismatches (first: %s)"
          w.W.abbr
          (List.length r.Oracle.mismatches)
          (Oracle.mismatch_line (List.hd r.Oracle.mismatches));
      check_bool
        (w.W.abbr ^ " exercises forwarding")
        true (r.Oracle.forwards > 0))
    Darsie_workloads.Registry.all

let test_oracle_detects_every_kind () =
  (* LIB's loop-carried redundancy gives candidates for all three kinds *)
  let w =
    match Darsie_workloads.Registry.find "LIB" with
    | Some w -> w
    | None -> Alcotest.fail "LIB missing from registry"
  in
  let cands = Oracle.candidates w in
  check_bool "flip candidates" true (cands.Injector.flip_sites <> []);
  check_bool "poison candidates" true (cands.Injector.poison_sites <> []);
  check_bool "skip candidates" true (cands.Injector.skip_sites <> []);
  let faults = Injector.plan ~seed:7 ~count:6 cands in
  check_bool "plan covers every kind" true
    (List.for_all
       (fun k -> List.exists (fun f -> f.Injector.kind = k) faults)
       Injector.all_kinds);
  List.iter
    (fun fault ->
      let r = Oracle.check_fault w fault in
      if Oracle.passed r then
        Alcotest.failf "fault escaped the oracle: %s" (Injector.fault_line fault);
      match Oracle.to_error r with
      | Some (Sim_error.Oracle_mismatch { mismatches; _ }) ->
        check_bool "mismatch count positive" true (mismatches > 0)
      | _ -> Alcotest.fail "faulted report should map to Oracle_mismatch")
    faults

(* ------------------------------------------------------------------ *)
(* Crash-isolated suite checking                                       *)
(* ------------------------------------------------------------------ *)

(* A healthy self-contained workload, cheap enough for unit tests. *)
let good_workload abbr : W.t =
  let kernel =
    parse
      {|
.kernel ok
.params 1
  shl.b32 %r0, %tid.x, 2;
  add.u32 %r1, %r0, %param0;
  mov.u32 %r2, %tid.x;
  st.global.u32 [%r1+0], %r2;
  exit;
|}
  in
  {
    W.abbr;
    full_name = "test workload";
    suite = "test";
    block_dim = (64, 1);
    dimensionality = W.D1;
    prepare =
      (fun ~scale:_ ->
        let mem = Memory.create () in
        let out = Memory.alloc mem 256 in
        {
          W.mem;
          launch =
            Kernel.launch kernel ~grid:(Kernel.dim3 2) ~block:(Kernel.dim3 64)
              ~params:[| out |];
          verify =
            (fun m ->
              W.check_i32 ~name:abbr
                ~expected:(Array.init 64 (fun i -> i))
                (Memory.read_i32s m out 64));
        });
  }

(* Its evil twin: every run dies with a lane-level memory fault. *)
let poisoned_workload : W.t =
  let kernel =
    parse {|
.kernel bad
.shared 16
  st.shared.u32 [4096], 1;
  exit;
|}
  in
  {
    W.abbr = "BAD";
    full_name = "poisoned workload";
    suite = "test";
    block_dim = (32, 1);
    dimensionality = W.D1;
    prepare =
      (fun ~scale:_ ->
        let mem = Memory.create () in
        {
          W.mem;
          launch =
            Kernel.launch kernel ~grid:(Kernel.dim3 1) ~block:(Kernel.dim3 32)
              ~params:[||];
          verify = (fun _ -> Ok ());
        });
  }

let test_checker_isolation () =
  let apps = [ good_workload "OK1"; poisoned_workload; good_workload "OK2" ] in
  let report = Checker.check_suite ~oracle:false ~apps () in
  check_int "every app reported" 3 (List.length report.Checker.apps);
  let by_abbr a =
    List.find (fun r -> r.Checker.abbr = a) report.Checker.apps
  in
  check_bool "first app unaffected" true (Checker.app_passed (by_abbr "OK1"));
  check_bool "last app still ran" true (Checker.app_passed (by_abbr "OK2"));
  let bad = by_abbr "BAD" in
  check_bool "poisoned app failed" false (Checker.app_passed bad);
  check_bool "captured as memory faults" true
    (List.for_all
       (fun e -> match e with Sim_error.Memory_fault _ -> true | _ -> false)
       bad.Checker.errors);
  check_bool "suite failed overall" false (Checker.passed report);
  (match Checker.worst_error report with
  | Some e -> check_int "exit code is the memory-fault one" 6 (Sim_error.exit_code e)
  | None -> Alcotest.fail "worst_error must exist");
  let rendered = Checker.render report in
  check_bool "render marks the failure" true (contains ~sub:"FAIL BAD" rendered);
  check_bool "render marks the survivors" true (contains ~sub:"ok   OK2" rendered)

let test_checker_full_pass () =
  let apps = [ good_workload "OK1" ] in
  let report = Checker.check_suite ~inject:0 ~apps () in
  check_bool "passes" true (Checker.passed report);
  check_bool "no worst error" true (Checker.worst_error report = None);
  let a = List.hd report.Checker.apps in
  check_int "two machines" 2 (List.length a.Checker.timing);
  List.iter
    (fun (t : Checker.timing_run) ->
      match t.Checker.outcome with
      | Ok c -> check_bool "cycles positive" true (c > 0)
      | Error e -> Alcotest.failf "timing failed: %s" (Sim_error.summary e))
    a.Checker.timing;
  match a.Checker.oracle with
  | Some o -> check_bool "oracle clean" true (Oracle.passed o)
  | None -> Alcotest.fail "oracle should have run"

let test_check_report_json () =
  let apps = [ good_workload "OK1"; poisoned_workload ] in
  let report = Checker.check_suite ~oracle:false ~apps () in
  let doc = Checker.to_json report in
  (match Darsie_harness.Metrics.validate doc with
  | Ok () -> ()
  | Error m -> Alcotest.failf "report invalid: %s" m);
  (match Darsie_harness.Metrics.validate_string (Obs.Json.to_string doc) with
  | Ok () -> ()
  | Error m -> Alcotest.failf "round-trip invalid: %s" m);
  (* tampering with the pass flag must be caught *)
  let tampered =
    match doc with
    | Obs.Json.Obj fields ->
      Obs.Json.Obj
        (List.map
           (function
             | "passed", _ -> ("passed", Obs.Json.Bool true)
             | kv -> kv)
           fields)
    | _ -> Alcotest.fail "report is not an object"
  in
  match Darsie_harness.Metrics.validate tampered with
  | Ok () -> Alcotest.fail "tampered report accepted"
  | Error _ -> ()

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "check"
    [
      ( "sim-error",
        [ Alcotest.test_case "exit codes and summaries" `Quick test_exit_codes ] );
      ( "watchdog",
        [
          Alcotest.test_case "deadlock detected" `Quick test_watchdog_deadlock;
          Alcotest.test_case "cycle bound" `Quick test_cycle_bound;
          Alcotest.test_case "wall timeout" `Quick test_wall_timeout;
          Alcotest.test_case "wall budget beside a busy domain" `Quick
            test_wall_budget_beside_busy_domain;
          Alcotest.test_case "open syncs in the dump" `Quick
            test_open_syncs_note;
          Alcotest.test_case "clean run unaffected" `Quick test_clean_run_still_ok;
        ] );
      ( "emu-deadlock",
        [
          Alcotest.test_case "strict barrier deadlock" `Quick
            test_strict_barrier_deadlock;
          Alcotest.test_case "permissive release" `Quick
            test_permissive_barrier_releases;
        ] );
      ( "skip-table",
        [ Alcotest.test_case "invariants" `Quick test_skip_table_invariants ] );
      ( "injector",
        [ Alcotest.test_case "deterministic plan" `Quick test_injector_plan ] );
      ( "oracle",
        [
          Alcotest.test_case "clean on every workload" `Slow
            test_oracle_clean_suite;
          Alcotest.test_case "detects every fault kind" `Slow
            test_oracle_detects_every_kind;
        ] );
      ( "checker",
        [
          Alcotest.test_case "crash isolation" `Quick test_checker_isolation;
          Alcotest.test_case "full pass" `Quick test_checker_full_pass;
          Alcotest.test_case "json report" `Quick test_check_report_json;
        ] );
    ]
