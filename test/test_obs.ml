(* Tests for the observability layer: null-sink non-interference, the
   interval sampler's boundary math, the stall-attribution invariant on
   real Table-1 apps, and the exported JSON schema (round-trip through
   our own parser plus [Metrics.validate]). *)

open Darsie_harness
module Obs = Darsie_obs

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Sinks and the recorder                                              *)
(* ------------------------------------------------------------------ *)

let test_null_sink () =
  check_bool "null sink disabled" false (Obs.Sink.enabled Obs.Sink.null);
  (* Emitting into the null sink is a no-op, not an error. *)
  Obs.Sink.emit Obs.Sink.null
    { Obs.Event.cycle = 0; sm = 0; warp = 0; kind = Obs.Event.Fetch };
  let r = Obs.Recorder.create () in
  check_bool "recorder sink enabled" true (Obs.Sink.enabled (Obs.Recorder.sink r));
  check_int "fresh recorder is empty" 0 (Obs.Recorder.length r)

let test_recorder_cap () =
  let r = Obs.Recorder.create ~cap:3 () in
  let s = Obs.Recorder.sink r in
  for c = 0 to 9 do
    Obs.Sink.emit s { Obs.Event.cycle = c; sm = 0; warp = 0; kind = Obs.Event.Issue }
  done;
  check_int "stores up to cap" 3 (Obs.Recorder.length r);
  check_int "counts the overflow" 7 (Obs.Recorder.dropped r);
  check_int "count by kind" 3 (Obs.Recorder.count r Obs.Event.Issue);
  check_int "count of absent kind" 0 (Obs.Recorder.count r Obs.Event.Fetch)

(* The null sink must not perturb the simulation: same cycle count with
   tracing off and with a recorder attached. *)
let test_non_interference () =
  let app = Suite.load_app Darsie_workloads.Matmul.workload in
  let off = Suite.run_app app Suite.Darsie in
  let r = Obs.Recorder.create () in
  let on =
    Suite.run_app ~sink:(Obs.Recorder.sink r) ~sample_interval:512 app
      Suite.Darsie
  in
  check_int "same cycles with and without tracing"
    off.Suite.gpu.Darsie_timing.Gpu.cycles on.Suite.gpu.Darsie_timing.Gpu.cycles;
  check_bool "tracing recorded events" true (Obs.Recorder.length r > 0);
  check_int "issue events match the issued counter"
    on.Suite.gpu.Darsie_timing.Gpu.stats.Darsie_timing.Stats.issued
    (Obs.Recorder.count r Obs.Event.Issue)

(* ------------------------------------------------------------------ *)
(* Interval sampler                                                    *)
(* ------------------------------------------------------------------ *)

let test_series_boundaries () =
  let s = Obs.Series.create ~interval:4 ~names:[ "a"; "b" ] in
  check_bool "cycle 0 is not a boundary" false (Obs.Series.boundary s ~cycle:0);
  check_bool "cycle 3 is not a boundary" false (Obs.Series.boundary s ~cycle:3);
  check_bool "cycle 4 is a boundary" true (Obs.Series.boundary s ~cycle:4);
  check_bool "cycle 8 is a boundary" true (Obs.Series.boundary s ~cycle:8);
  check_int "interval accessor" 4 (Obs.Series.interval s);
  Alcotest.(check (list string)) "names accessor" [ "a"; "b" ] (Obs.Series.names s)

let test_series_deltas () =
  let s = Obs.Series.create ~interval:4 ~names:[ "a"; "b" ] in
  Obs.Series.record s ~cycle:4 [| 10; 1 |];
  Obs.Series.record s ~cycle:8 [| 25; 1 |];
  (* Final flush on a partial interval... *)
  Obs.Series.record s ~cycle:10 [| 30; 2 |];
  (* ...and a duplicate flush landing exactly on the last cycle is ignored. *)
  Obs.Series.record s ~cycle:10 [| 30; 2 |];
  check_int "three points" 3 (Obs.Series.num_points s);
  let pts = Obs.Series.points s in
  let p1 = List.nth pts 0 and p2 = List.nth pts 1 and p3 = List.nth pts 2 in
  check_int "first point cycle" 4 p1.Obs.Series.cycle;
  check_int "first delta = cumulative" 10 p1.Obs.Series.values.(0);
  check_int "second delta" 15 p2.Obs.Series.values.(0);
  check_int "second delta (flat counter)" 0 p2.Obs.Series.values.(1);
  check_int "partial-interval delta" 5 p3.Obs.Series.values.(0);
  check_int "partial-interval delta b" 1 p3.Obs.Series.values.(1);
  check_bool "non-monotonic cycle raises" true
    (match Obs.Series.record s ~cycle:9 [| 99; 9 |] with
    | exception Invalid_argument _ -> true
    | () -> false);
  check_bool "width mismatch raises" true
    (match Obs.Series.record s ~cycle:12 [| 1 |] with
    | exception Invalid_argument _ -> true
    | () -> false)

(* ------------------------------------------------------------------ *)
(* Stall-cycle attribution                                             *)
(* ------------------------------------------------------------------ *)

let check_attribution_sums name (r : Suite.run) =
  let gpu = r.Suite.gpu in
  let open Darsie_timing in
  Array.iteri
    (fun i a ->
      check_int
        (Printf.sprintf "%s: SM %d buckets sum to cycles" name i)
        gpu.Gpu.cycles (Obs.Attrib.total a))
    gpu.Gpu.per_sm_attribution;
  check_int
    (Printf.sprintf "%s: aggregate = num_sms * cycles" name)
    (Array.length gpu.Gpu.per_sm * gpu.Gpu.cycles)
    (Obs.Attrib.total gpu.Gpu.attribution);
  match Gpu.check_attribution gpu with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "%s: check_attribution: %s" name msg

let test_attribution_sums () =
  List.iter
    (fun w ->
      let app = Suite.load_app w in
      List.iter
        (fun machine ->
          let r = Suite.run_app app machine in
          let name =
            Printf.sprintf "%s/%s" w.Darsie_workloads.Workload.abbr
              (Suite.machine_name machine)
          in
          check_attribution_sums name r)
        [ Suite.Base; Suite.Darsie ])
    [ Darsie_workloads.Matmul.workload; Darsie_workloads.Hotspot.workload ]

let test_attrib_arith () =
  let a = Obs.Attrib.create () in
  Obs.Attrib.bump a Obs.Attrib.Active;
  Obs.Attrib.bump a Obs.Attrib.Active;
  Obs.Attrib.bump a Obs.Attrib.Idle;
  check_int "bump/get" 2 (Obs.Attrib.get a Obs.Attrib.Active);
  check_int "total" 3 (Obs.Attrib.total a);
  let b = Obs.Attrib.create () in
  Obs.Attrib.bump b Obs.Attrib.Barrier;
  Obs.Attrib.add a b;
  check_int "add accumulates" 4 (Obs.Attrib.total a);
  check_int "assoc covers every bucket"
    (List.length Obs.Attrib.all_buckets)
    (List.length (Obs.Attrib.to_assoc a))

(* ------------------------------------------------------------------ *)
(* Schema: JSON round-trip and document validation                     *)
(* ------------------------------------------------------------------ *)

let test_json_roundtrip () =
  let doc =
    Obs.Json.Obj
      [
        ("i", Obs.Json.Int 42);
        ("f", Obs.Json.Float 1.5);
        ("s", Obs.Json.String "a \"quoted\" \\ line\nnext");
        ("l", Obs.Json.List [ Obs.Json.Bool true; Obs.Json.Null ]);
        ("o", Obs.Json.Obj [ ("nested", Obs.Json.Int (-7)) ]);
      ]
  in
  match Obs.Json.of_string (Obs.Json.to_string doc) with
  | Error e -> Alcotest.failf "reparse failed: %s" e
  | Ok doc' ->
    check_bool "compact round-trip preserves the tree" true (doc = doc');
    (match Obs.Json.of_string (Obs.Json.pretty_to_string doc) with
    | Error e -> Alcotest.failf "pretty reparse failed: %s" e
    | Ok doc'' -> check_bool "pretty round-trip too" true (doc = doc''))

(* [doc] with [f] applied to its field [k]; [bump k d] adds [d] to it. *)
let field k f = function
  | Obs.Json.Obj fields ->
    Obs.Json.Obj
      (List.map (fun (k', v) -> (k', if k' = k then f v else v)) fields)
  | j -> j

let bump k d =
  field k (function Obs.Json.Int n -> Obs.Json.Int (n + d) | j -> j)

let test_metrics_document () =
  let app = Suite.load_app Darsie_workloads.Matmul.workload in
  let r = Suite.run_app ~sample_interval:512 app Suite.Darsie in
  let doc = Metrics.of_run ~app:"MM" r in
  (match Metrics.validate doc with
  | Ok () -> ()
  | Error e -> Alcotest.failf "fresh document invalid: %s" e);
  (* The golden round-trip: serialized text reparses and still validates. *)
  (match Metrics.validate_string (Obs.Json.to_string doc) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "round-tripped document invalid: %s" e);
  check_bool "schema_version present" true
    (Obs.Json.member "schema_version" doc
    = Some (Obs.Json.Int Metrics.schema_version));
  (* Tampering with the attribution must fail validation. *)
  let tampered =
    match doc with
    | Obs.Json.Obj fields ->
      Obs.Json.Obj
        (List.map
           (function
             | "cycles", Obs.Json.Int c -> ("cycles", Obs.Json.Int (c + 1))
             | kv -> kv)
           fields)
    | _ -> Alcotest.fail "document is not an object"
  in
  check_bool "tampered cycles fail validation" true
    (match Metrics.validate tampered with Error _ -> true | Ok () -> false);
  (* One unit moved between two columns keeps every sum, so only the
     column-wise identities catch it: the total must stay the
     bucket-wise sum of per_sm, the ledger totals the fate-wise sum of
     its rows. *)
  let moved section obj ~from ~into =
    field section (field obj (fun o -> bump from (-1) (bump into 1 o))) doc
  in
  check_bool "total no longer the bucket-wise sum of per_sm" true
    (Result.is_error
       (Metrics.validate
          (moved "stall_attribution" "total" ~from:"active" ~into:"idle")));
  check_bool "ledger totals no longer the fate-wise sum of rows" true
    (Result.is_error
       (Metrics.validate
          (moved "skip_ledger" "totals" ~from:"leader_executed"
             ~into:"evicted_capacity")))

let test_chrome_trace () =
  let app = Suite.load_app Darsie_workloads.Matmul.workload in
  let r = Obs.Recorder.create () in
  let run =
    Suite.run_app ~sink:(Obs.Recorder.sink r) ~sample_interval:512 app
      Suite.Darsie
  in
  let trace =
    Obs.Export.chrome_trace ~recorder:r
      ~series:run.Suite.gpu.Darsie_timing.Gpu.series ~name:"MM/DARSIE" ()
  in
  match Obs.Json.of_string (Obs.Json.to_string trace) with
  | Error e -> Alcotest.failf "trace reparse failed: %s" e
  | Ok doc ->
    (match Obs.Json.member "traceEvents" doc with
    | Some (Obs.Json.List evs) ->
      check_bool "trace has events" true (List.length evs > 0);
      let ok_event = function
        | Obs.Json.Obj fields ->
          List.mem_assoc "ph" fields && List.mem_assoc "pid" fields
        | _ -> false
      in
      check_bool "every event has ph and pid" true (List.for_all ok_event evs)
    | _ -> Alcotest.fail "traceEvents missing or not a list")

let () =
  Alcotest.run "darsie_obs"
    [
      ( "sink",
        [
          Alcotest.test_case "null sink" `Quick test_null_sink;
          Alcotest.test_case "recorder cap" `Quick test_recorder_cap;
          Alcotest.test_case "non-interference" `Quick test_non_interference;
        ] );
      ( "series",
        [
          Alcotest.test_case "boundaries" `Quick test_series_boundaries;
          Alcotest.test_case "deltas" `Quick test_series_deltas;
        ] );
      ( "attribution",
        [
          Alcotest.test_case "arithmetic" `Quick test_attrib_arith;
          Alcotest.test_case "sums on MM and HS" `Quick test_attribution_sums;
        ] );
      ( "schema",
        [
          Alcotest.test_case "json round-trip" `Quick test_json_roundtrip;
          Alcotest.test_case "metrics document" `Quick test_metrics_document;
          Alcotest.test_case "chrome trace" `Quick test_chrome_trace;
        ] );
    ]
