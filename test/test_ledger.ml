(* Skip-ledger tests: the accounting structure itself, the conservation
   invariant (eligible = Σ fates, per PC, per SM, aggregate = Σ per-SM)
   across the whole app × machine matrix, fast-forward bit-identity of
   the ledger, and fault injection — a broken engine must perturb the
   ledger detectably (conservation failure for a lost-update fault,
   divergent counts for a misclassification fault). *)

open Darsie_isa
open Darsie_timing
module Obs = Darsie_obs
module Suite = Darsie_harness.Suite
module W = Darsie_workloads.Workload
module J = Darsie_obs.Json
module L = Darsie_obs.Ledger

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

let check_string = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* The ledger structure                                                *)
(* ------------------------------------------------------------------ *)

let test_taxonomy () =
  check_int "eleven fates" 11 L.nfates;
  check_int "all_fates lists them all" L.nfates (List.length L.all_fates);
  let names = List.map L.fate_name L.all_fates in
  check_int "fate names unique" L.nfates
    (List.length (List.sort_uniq compare names));
  check_bool "snake_case names" true
    (List.for_all
       (fun n -> String.lowercase_ascii n = n && not (String.contains n ' '))
       names)

let test_counting () =
  let t = L.create ~n:4 in
  check_int "empty expected_total" 0 (L.expected_total t);
  check_int "empty captured" 0 (L.captured t);
  Alcotest.(check (float 1e-9)) "empty coverage is 1.0" 1.0 (L.coverage t);
  (match L.check t with
  | Ok () -> ()
  | Error m -> Alcotest.failf "empty ledger must conserve: %s" m);
  (* three eligible occurrences at pc 1: skip, park, leader *)
  L.note_expected t ~pc:1;
  L.note_expected t ~pc:1;
  L.note_expected t ~pc:1;
  L.note t ~pc:1 L.Skipped;
  L.note t ~pc:1 L.Parked_waiting_leaderwb;
  L.note t ~pc:1 L.Leader_executed;
  (* one at pc 3, disabled *)
  L.note_expected t ~pc:3;
  L.note t ~pc:3 L.Skip_disabled;
  check_int "expected at pc 1" 3 (L.expected t ~pc:1);
  check_int "skipped at pc 1" 1 (L.get t ~pc:1 L.Skipped);
  check_int "expected_total" 4 (L.expected_total t);
  check_int "captured counts skipped + parked" 2 (L.captured t);
  Alcotest.(check (float 1e-9)) "coverage" 0.5 (L.coverage t);
  (match L.check t with
  | Ok () -> ()
  | Error m -> Alcotest.failf "balanced ledger must conserve: %s" m);
  (* now unbalance it: an eligible occurrence with no recorded fate *)
  L.note_expected t ~pc:2;
  (match L.check t with
  | Ok () -> Alcotest.fail "unbalanced ledger must fail check"
  | Error m -> check_bool "error message is diagnostic" true (m <> ""));
  ignore (L.totals_assoc t)

let test_add_and_totals () =
  let a = L.create ~n:2 and b = L.create ~n:2 in
  L.note_expected a ~pc:0;
  L.note a ~pc:0 L.Skipped;
  L.note_expected b ~pc:0;
  L.note b ~pc:0 L.Evicted_capacity;
  L.note_expected b ~pc:1;
  L.note b ~pc:1 L.Freelist_stall;
  L.add a b;
  check_int "add merges expected" 3 (L.expected_total a);
  check_int "add merges fates" 1 (L.get a ~pc:0 L.Evicted_capacity);
  (match L.check a with
  | Ok () -> ()
  | Error m -> Alcotest.failf "sum of conserving ledgers conserves: %s" m);
  let totals = L.totals_assoc a in
  check_int "totals_assoc covers every fate" L.nfates (List.length totals);
  check_int "totals sum to expected_total" (L.expected_total a)
    (List.fold_left (fun acc (_, v) -> acc + v) 0 totals)

let test_to_json () =
  let t = L.create ~n:3 in
  L.note_expected t ~pc:1;
  L.note t ~pc:1 L.Skipped;
  let doc = L.to_json t in
  let geti k =
    match J.member k doc with
    | Some v -> ( match J.to_int v with Some i -> i | None -> -1)
    | None -> -1
  in
  check_int "json expected_total" 1 (geti "expected_total");
  check_int "json captured" 1 (geti "captured");
  (match J.member "totals" doc with
  | Some (J.Obj kvs) ->
    check_int "json totals has all fates" L.nfates (List.length kvs)
  | _ -> Alcotest.fail "totals must be an object");
  match J.member "rows" doc with
  | Some (J.List rows) ->
    (* only touched PCs appear *)
    check_int "one row" 1 (List.length rows)
  | _ -> Alcotest.fail "rows must be a list"

(* ------------------------------------------------------------------ *)
(* Crafted-kernel run: conservation + fast-forward bit-identity        *)
(* ------------------------------------------------------------------ *)

(* Mostly-DR body with one promotable CR op; block (32,4) gives four
   warps per TB so followers actually skip behind a leader. *)
let red_kernel =
  {|
.kernel red
.params 2
  mov.u32 %r0, %param0;
  ld.global.u32 %r1, [%r0+0];
  add.u32 %r2, %r1, 42;
  shl.b32 %r3, %tid.x, 2;
  mad.lo.u32 %r4, %tid.y, 128, %r3;
  add.u32 %r5, %r4, %param1;
  st.global.u32 [%r5+0], %r2;
  exit;
|}

let prep ?(grid = Kernel.dim3 4) ?(block = Kernel.dim3 ~y:4 32) ktext
    ~nparams =
  let k = Parser.parse_kernel ktext in
  let mem = Darsie_emu.Memory.create () in
  let params =
    Array.init nparams (fun _ ->
        let b = Darsie_emu.Memory.alloc mem 65536 in
        Darsie_emu.Memory.write_i32s mem b (Array.init 16384 (fun i -> i));
        b)
  in
  let launch = Kernel.launch k ~grid ~block ~params in
  (Kinfo.make ~warp_size:32 launch, Darsie_trace.Record.generate mem launch)

let darsie_factory = Darsie_core.Darsie_engine.factory ()

let run_red ?(engine = darsie_factory) ?(cfg = Config.default) () =
  let kinfo, trace = prep red_kernel ~nparams:2 in
  Gpu.run_exn ~cfg engine kinfo trace

let test_crafted_conservation () =
  let r = run_red () in
  (match Gpu.check_ledger r with
  | Ok () -> ()
  | Error m -> Alcotest.failf "conservation on crafted kernel: %s" m);
  check_bool "crafted kernel has eligible occurrences" true
    (L.expected_total r.Gpu.ledger > 0);
  check_bool "DARSIE captures some of them" true (L.captured r.Gpu.ledger > 0)

let test_ff_bit_identity () =
  let on = run_red () in
  let off =
    run_red ~cfg:{ Config.default with Config.fast_forward = false } ()
  in
  match Gpu.first_difference ~labels:("off", "on") off on with
  | Some d -> Alcotest.failf "fast-forward on/off: %s" d.Gpu.report
  | None -> ()

(* ------------------------------------------------------------------ *)
(* Matrix conservation property                                        *)
(* ------------------------------------------------------------------ *)

let all_machines =
  [ Suite.Base; Suite.Uv; Suite.Dac_ideal; Suite.Darsie;
    Suite.Darsie_ignore_store; Suite.Darsie_no_cf_sync; Suite.Silicon_sync ]

let test_matrix_conservation () =
  let jobs = Darsie_harness.Parallel.default_jobs () in
  let m = Suite.build_matrix ~machines:all_machines ~jobs () in
  List.iter
    (fun (app : Suite.app) ->
      let abbr = app.Suite.workload.W.abbr in
      (* eligible occurrences are a property of the trace, not of the
         machine: identical down every column of the matrix *)
      let expected machine =
        L.expected_total (Suite.get m abbr machine).Suite.gpu.Gpu.ledger
      in
      let base_expected = expected Suite.Base in
      List.iter
        (fun machine ->
          let r = (Suite.get m abbr machine).Suite.gpu in
          (match Gpu.check_ledger r with
          | Ok () -> ()
          | Error msg ->
            Alcotest.failf "conservation %s/%s: %s" abbr
              (Suite.machine_name machine) msg);
          check_int
            (Printf.sprintf "machine-independent eligible count %s/%s" abbr
               (Suite.machine_name machine))
            base_expected (expected machine))
        all_machines;
      (* machines without a skip engine capture nothing *)
      check_int
        (Printf.sprintf "BASE captures nothing (%s)" abbr)
        0
        (L.captured (Suite.get m abbr Suite.Base).Suite.gpu.Gpu.ledger))
    m.Suite.apps;
  (* the tentpole's derived metric is well-defined on this matrix *)
  let rows, gmean, _text = Darsie_harness.Figures.coverage m in
  check_int "coverage row per app" (List.length m.Suite.apps)
    (List.length rows);
  check_bool "DARSIE captures redundancy somewhere" true (gmean > 0.0)

(* ------------------------------------------------------------------ *)
(* Fault injection: broken engines must perturb the ledger             *)
(* ------------------------------------------------------------------ *)

(* Lost-update fault: the engine records its follower-skip fates into a
   decoy ledger instead of the SM's, so skipped/parked occurrences
   vanish from the books. Conservation must catch it. *)
let decoy_factory ki cfg stats =
  let e = darsie_factory ki cfg stats in
  {
    e with
    Engine.set_ledger =
      (fun real ->
        ignore real;
        e.Engine.set_ledger (L.create ~n:256));
  }

let test_fault_lost_updates () =
  let r = run_red ~engine:decoy_factory () in
  match Gpu.check_ledger r with
  | Ok () ->
    Alcotest.fail "lost follower-skip updates must break conservation"
  | Error _ -> ()

(* The one invariant helper the CLI, the checker and the fuzz
   differential share must run the ledger check, not only attribution:
   the lost-update engine's run holds attribution and fails the ledger. *)
let test_invariants_catch_lost_updates () =
  let clean = run_red () in
  let faulty = run_red ~engine:decoy_factory () in
  check_bool "clean run holds every invariant" true
    (Gpu.check_invariants [ clean ] = None);
  check_bool "the decoy run's attribution holds" true
    (Gpu.check_attribution faulty = Ok ());
  match Gpu.check_invariants [ clean; faulty ] with
  | Some ("ledger", _) -> ()
  | Some (kind, msg) ->
    Alcotest.failf "expected a ledger failure, got %s: %s" kind msg
  | None -> Alcotest.fail "lost follower-skip updates must fail the invariants"

(* Misclassification fault: every really-executed eligible occurrence
   reports Skipped. Conservation still balances — the counts are wrong,
   not missing — so the detection signal is the diff against a clean
   run, which is exactly what the fast-forward differential and
   perfbench's per-cell digests consume. *)
let misreport_factory ki cfg stats =
  let e = darsie_factory ki cfg stats in
  { e with Engine.exec_fate = (fun _ _ -> L.Skipped) }

let test_fault_misreported_fate () =
  let clean = run_red () in
  let faulty = run_red ~engine:misreport_factory () in
  (match Gpu.check_ledger faulty with
  | Ok () -> ()
  | Error m ->
    Alcotest.failf "misreporting balances the books, expected Ok: %s" m);
  (match Gpu.first_difference ~labels:("clean", "faulty") clean faulty with
  | Some d -> check_string "fault is first detectable in" "ledger" d.Gpu.part
  | None -> Alcotest.fail "misreported fates must change the ledger");
  check_bool "misreporting inflates captured" true
    (L.captured faulty.Gpu.ledger > L.captured clean.Gpu.ledger);
  check_int "but leaves the eligible count alone"
    (L.expected_total clean.Gpu.ledger)
    (L.expected_total faulty.Gpu.ledger)

let () =
  Alcotest.run "ledger"
    [
      ( "structure",
        [
          Alcotest.test_case "fate taxonomy" `Quick test_taxonomy;
          Alcotest.test_case "counting and check" `Quick test_counting;
          Alcotest.test_case "add and totals" `Quick test_add_and_totals;
          Alcotest.test_case "to_json" `Quick test_to_json;
        ] );
      ( "runs",
        [
          Alcotest.test_case "crafted conservation" `Quick
            test_crafted_conservation;
          Alcotest.test_case "fast-forward bit-identity" `Quick
            test_ff_bit_identity;
          Alcotest.test_case "matrix conservation" `Slow
            test_matrix_conservation;
        ] );
      ( "faults",
        [
          Alcotest.test_case "lost updates break conservation" `Quick
            test_fault_lost_updates;
          Alcotest.test_case "invariant helper catches lost updates" `Quick
            test_invariants_catch_lost_updates;
          Alcotest.test_case "misreported fate diverges from clean" `Quick
            test_fault_misreported_fate;
        ] );
    ]
