(* Tests for the host-telemetry layer: the integer self-time invariant,
   schedule-independence of the normalized span forms and counter
   totals, Chrome-trace string escaping round-trips, host_telemetry
   document validation, the trendline's telemetry fields, and the
   progress/straggler channel. *)

open Darsie_harness
module Tel = Darsie_telemetry.Telemetry
module Host_trace = Darsie_telemetry.Host_trace
module J = Darsie_obs.Json

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

let check_string = Alcotest.(check string)

let parse s =
  match J.of_string s with
  | Ok j -> j
  | Error e -> Alcotest.fail ("json parse: " ^ e)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec scan i =
    if i + nn > nh then false
    else String.sub haystack i nn = needle || scan (i + 1)
  in
  scan 0

(* ------------------------------------------------------------------ *)
(* Span accounting *)

let test_span_invariants () =
  Tel.reset ();
  Tel.enable ();
  Tel.span "outer" (fun () ->
      Tel.span "inner" (fun () -> ignore (Sys.opaque_identity 1));
      Tel.span "inner" (fun () -> ()));
  (try Tel.span "raiser" (fun () -> failwith "boom")
   with Failure _ -> ());
  Tel.incr "x";
  Tel.incr ~by:2 "x";
  let snap = Tel.snapshot () in
  let phases = Tel.phases snap in
  let count name =
    match List.assoc_opt name phases with
    | Some (c, _, _) -> c
    | None -> 0
  in
  check_int "outer recorded once" 1 (count "outer");
  check_int "inner recorded twice" 2 (count "inner");
  check_int "raised span still recorded" 1 (count "raiser");
  List.iter
    (fun (name, (_, total, self)) ->
      check_bool (name ^ ": 0 <= self <= total") true
        (0 <= self && self <= total))
    phases;
  let self_sum =
    List.fold_left (fun acc (_, (_, _, s)) -> acc + s) 0 phases
  in
  let busy_sum =
    List.fold_left (fun acc d -> acc + d.Tel.dv_busy_ns) 0 snap.Tel.sn_domains
  in
  check_int "sum of phase self = sum of domain busy" busy_sum self_sum;
  check_int "counters merge" 3 (List.assoc "x" snap.Tel.sn_counters);
  (* the raising span is flagged *)
  let norm = J.to_string (Host_trace.normalized_spans snap) in
  check_bool "raised arg present" true (contains norm "raised")

(* ------------------------------------------------------------------ *)
(* Schedule-independence *)

let small_apps =
  [ Darsie_workloads.Bin_opt.workload; Darsie_workloads.Matmul.workload ]

let small_machines = [ Suite.Base; Suite.Darsie ]

let build jobs =
  Tel.reset ();
  Tel.enable ();
  ignore
    (Suite.build_matrix ~apps:small_apps ~machines:small_machines ~jobs ());
  Tel.snapshot ()

let counters_fingerprint snap =
  J.to_string
    (J.Obj (List.map (fun (k, v) -> (k, J.Int v)) snap.Tel.sn_counters))

let test_normalized_determinism () =
  let a = build 4 in
  let b = build 4 in
  check_string "normalized spans identical across -j4 runs"
    (J.to_string (Host_trace.normalized_spans a))
    (J.to_string (Host_trace.normalized_spans b));
  check_string "normalized summary identical across -j4 runs"
    (J.to_string (Host_trace.normalized_summary a))
    (J.to_string (Host_trace.normalized_summary b));
  check_string "counters identical across -j4 runs" (counters_fingerprint a)
    (counters_fingerprint b)

let test_counter_totals_jobs () =
  check_string "counter totals -j1 = -j4"
    (counters_fingerprint (build 1))
    (counters_fingerprint (build 4))

(* ------------------------------------------------------------------ *)
(* Chrome-trace escaping *)

let nasty = "ba\\ck\"quote\"\ttab\nnewline \x01ctl \xe2\x9c\x93 end"

let nasty_snapshot () =
  Tel.reset ();
  Tel.enable ();
  Tel.span
    ~args:[ ("msg", Tel.Str nasty); ("n", Tel.Int 3) ]
    nasty
    (fun () -> ());
  Tel.snapshot ()

(* find a ph:"X" event by name in a parsed traceEvents list *)
let find_span_event doc name =
  match J.member "traceEvents" doc with
  | Some (J.List events) ->
    List.find_opt
      (fun e ->
        J.member "name" e = Some (J.String name)
        && J.member "ph" e = Some (J.String "X"))
      events
  | _ -> None

let test_chrome_escaping () =
  let snap = nasty_snapshot () in
  let doc = Host_trace.document snap in
  let reread = parse (J.to_string doc) in
  (match find_span_event reread nasty with
  | None -> Alcotest.fail "nasty span name lost in round-trip"
  | Some e ->
    check_bool "nasty arg string survives" true
      (match J.member "args" e with
      | Some args -> J.member "msg" args = Some (J.String nasty)
      | None -> false));
  (* the same events merged into a simulated-GPU chrome trace *)
  let merged =
    Darsie_obs.Export.chrome_trace
      ~extra:(Host_trace.chrome_events snap)
      ~name:"escape-test" ()
  in
  (match find_span_event (parse (J.to_string merged)) nasty with
  | None -> Alcotest.fail "nasty span lost through Export.chrome_trace"
  | Some _ -> ());
  (* and the summary section itself parses back *)
  check_bool "document validates" true
    (Metrics.validate doc = Ok ())

(* ------------------------------------------------------------------ *)
(* Validator *)

let replace obj k v =
  match obj with
  | J.Obj fields ->
    J.Obj (List.map (fun (k', v') -> if k' = k then (k, v) else (k', v')) fields)
  | other -> other

let test_validator () =
  let section = Host_trace.host_telemetry_json (nasty_snapshot ()) in
  check_bool "bare section accepted" true
    (Metrics.validate section = Ok ());
  let rejects label doc =
    check_bool label true
      (match Metrics.validate doc with
      | Error _ -> true
      | Ok () -> false)
  in
  rejects "wrong kind" (replace section "kind" (J.String "bogus"));
  rejects "wrong schema_version" (replace section "schema_version" (J.Int 999));
  rejects "negative wall" (replace section "wall_ns" (J.Int (-1)));
  rejects "negative counter"
    (replace section "counters" (J.Obj [ ("oops", J.Int (-3)) ]));
  (* perturbing any phase self time breaks the exact integer identity
     [sum self = sum busy] *)
  (match J.member "phases" section with
  | Some (J.List (p :: rest)) ->
    let self =
      match Option.bind (J.member "self_ns" p) J.to_int with
      | Some s -> s
      | None -> Alcotest.fail "phase lacks self_ns"
    in
    rejects "self-time identity broken"
      (replace section "phases"
         (J.List (replace p "self_ns" (J.Int (self + 1)) :: rest)))
  | _ -> Alcotest.fail "section lacks phases")

(* ------------------------------------------------------------------ *)
(* Trendline telemetry fields *)

let test_trendline_fields () =
  let m =
    Suite.build_matrix
      ~apps:[ Darsie_workloads.Bin_opt.workload ]
      ~machines:
        [ Suite.Base; Suite.Uv; Suite.Dac_ideal; Suite.Darsie;
          Suite.Darsie_ignore_store ]
      ~jobs:1 ()
  in
  let r =
    Trendline.of_matrix
      ~host_phases:[ ("sim.run", 1.5); ("trace.load", 0.25) ]
      ~cache_hit_rate:0.25 ~date:"2026-01-01" ~label:"test" ~wall_s:1.0
      ~repeats:1 m
  in
  (match Trendline.of_json (Trendline.to_json r) with
  | Error e -> Alcotest.fail e
  | Ok r' ->
    check_bool "host_phases round-trip" true
      (r'.Trendline.host_phases = r.Trendline.host_phases);
    check_bool "cache_hit_rate round-trip" true
      (r'.Trendline.cache_hit_rate = Some 0.25));
  (* a baseline written before host telemetry still loads *)
  let stripped =
    match Trendline.to_json r with
    | J.Obj fields ->
      J.Obj
        (List.filter
           (fun (k, _) -> k <> "host_phases" && k <> "cache_hit_rate")
           fields)
    | other -> other
  in
  (match Trendline.of_json stripped with
  | Error e -> Alcotest.fail ("old baseline rejected: " ^ e)
  | Ok r' ->
    check_bool "missing host_phases reads as []" true
      (r'.Trendline.host_phases = []);
    check_bool "missing cache_hit_rate reads as None" true
      (r'.Trendline.cache_hit_rate = None));
  (* both records carrying the fields -> the gate compares them *)
  let verdicts =
    Trendline.compare_records ~baseline:r ~current:r ()
  in
  check_bool "cache_hit_rate gated" true
    (List.exists (fun v -> v.Trendline.metric = "cache_hit_rate") verdicts);
  check_bool "host phases gated" true
    (List.exists
       (fun v -> v.Trendline.metric = "host_phase.sim.run")
       verdicts);
  (* ...and not against a pre-telemetry baseline *)
  (match Trendline.of_json stripped with
  | Ok old ->
    let verdicts = Trendline.compare_records ~baseline:old ~current:r () in
    check_bool "cache_hit_rate skipped vs old baseline" true
      (not
         (List.exists
            (fun v -> v.Trendline.metric = "cache_hit_rate")
            verdicts))
  | Error _ -> ())

(* ------------------------------------------------------------------ *)
(* Progress channel *)

let test_progress_and_straggler () =
  let buf = Buffer.create 256 in
  Tel.Progress.configure
    ~out:(fun line ->
      Buffer.add_string buf line;
      Buffer.add_char buf '\n')
    Tel.Progress.Ndjson;
  Fun.protect
    ~finally:(fun () -> Tel.Progress.configure Tel.Progress.Off)
    (fun () ->
      Tel.reset ();
      let _ =
        Parallel.run ~jobs:2
          ~label:(Printf.sprintf "item-%d")
          (fun x ->
            if x = 0 then Unix.sleepf 0.05;
            x)
          [ 0; 1; 2; 3 ]
      in
      let lines =
        String.split_on_char '\n' (Buffer.contents buf)
        |> List.filter (fun l -> l <> "")
        |> List.map parse
      in
      let events kind =
        List.filter (fun l -> J.member "event" l = Some (J.String kind)) lines
      in
      check_bool "at least one item heartbeat" true (events "item" <> []);
      (* the final item always emits, with k = n *)
      check_bool "final item reports 4/4" true
        (List.exists
           (fun l ->
             J.member "k" l = Some (J.Int 4) && J.member "n" l = Some (J.Int 4))
           (events "item"));
      (* item 0 slept through >50% of the pool wall: straggler warning *)
      check_bool "straggler warning names the item" true
        (List.exists
           (fun l ->
             match J.member "message" l with
             | Some (J.String m) -> contains m "straggler" && contains m "item-0"
             | _ -> false)
           (events "warn")))

let () =
  Alcotest.run "telemetry"
    [
      ( "spans",
        [ Alcotest.test_case "self-time invariants" `Quick test_span_invariants ]
      );
      ( "determinism",
        [
          Alcotest.test_case "normalized forms, -j4 twice" `Quick
            test_normalized_determinism;
          Alcotest.test_case "counter totals, -j1 = -j4" `Quick
            test_counter_totals_jobs;
        ] );
      ( "escaping",
        [ Alcotest.test_case "chrome round-trip" `Quick test_chrome_escaping ]
      );
      ( "validator",
        [ Alcotest.test_case "accept / reject" `Quick test_validator ] );
      ( "trendline",
        [ Alcotest.test_case "telemetry fields" `Quick test_trendline_fields ]
      );
      ( "progress",
        [
          Alcotest.test_case "heartbeats + straggler" `Quick
            test_progress_and_straggler;
        ] );
    ]
