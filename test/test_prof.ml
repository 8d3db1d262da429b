(* Tests for the per-instruction profiler and the bench trajectory
   store: Pcstat bookkeeping, the cross-layer conservation invariant on
   real Table-1 apps (per-PC stall charges reproduce the per-SM
   attribution), skip-table telemetry agreement with the pipeline
   counters, the annotate renderer, and the Trendline round-trip plus
   its regression gate. *)

open Darsie_harness
module Obs = Darsie_obs
module Gpu = Darsie_timing.Gpu
module Stats = Darsie_timing.Stats

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

let check_string = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Pcstat unit behaviour                                               *)
(* ------------------------------------------------------------------ *)

let test_pcstat_counters () =
  let p = Obs.Pcstat.create ~n:4 in
  Obs.Pcstat.note_fetch p ~pc:0;
  Obs.Pcstat.note_issue p ~pc:0;
  Obs.Pcstat.note_skip p ~pc:1;
  Obs.Pcstat.note_skips p ~pc:1 2;
  Obs.Pcstat.note_skips p ~pc:99 5;
  (* out of range: ignored *)
  Obs.Pcstat.note_drop p ~pc:2;
  check_int "fetch" 1 (Obs.Pcstat.fetches p ~pc:0);
  check_int "issue" 1 (Obs.Pcstat.issues p ~pc:0);
  check_int "bulk skips accumulate" 3 (Obs.Pcstat.skips p ~pc:1);
  check_int "out-of-range skips dropped" 3 (Obs.Pcstat.total_skips p);
  check_int "drop" 1 (Obs.Pcstat.drops p ~pc:2)

let test_pcstat_charge_none_row () =
  let p = Obs.Pcstat.create ~n:2 in
  Obs.Pcstat.charge p ~pc:0 Obs.Attrib.Active;
  Obs.Pcstat.charge p ~pc:(-1) Obs.Attrib.Idle;
  Obs.Pcstat.charge p ~pc:7 Obs.Attrib.Idle;
  (* out of range also lands on the none-row *)
  check_int "row charge" 1 (Obs.Pcstat.charged p ~pc:0 Obs.Attrib.Active);
  check_int "none-row collects unattributable cycles" 2
    (Obs.Attrib.get (Obs.Pcstat.unattributed p) Obs.Attrib.Idle);
  check_int "bucket totals include the none-row" 3 (Obs.Pcstat.total_cycles p)

let test_pcstat_lat_buckets () =
  check_int "first bucket" 0 (Obs.Pcstat.lat_bucket_of 1);
  check_int "boundary is inclusive" 0 (Obs.Pcstat.lat_bucket_of 4);
  check_int "next bucket" 1 (Obs.Pcstat.lat_bucket_of 5);
  check_int "open-ended tail" (Obs.Pcstat.lat_buckets - 1)
    (Obs.Pcstat.lat_bucket_of 100_000);
  let p = Obs.Pcstat.create ~n:1 in
  Obs.Pcstat.note_mem_latency p ~pc:0 ~lat:10;
  Obs.Pcstat.note_mem_latency p ~pc:0 ~lat:30;
  check_int "count" 2 (Obs.Pcstat.mem_count p ~pc:0);
  check_int "max" 30 (Obs.Pcstat.mem_lat_max p ~pc:0);
  Alcotest.(check (float 1e-9)) "mean" 20.0 (Obs.Pcstat.mem_lat_mean p ~pc:0)

let test_merge_skip_telemetry () =
  let e hits = { Obs.Pcstat.empty_skip_entry with Obs.Pcstat.sk_hits = hits } in
  let merged =
    Obs.Pcstat.merge_skip_telemetry
      [ [ (3, e 1); (1, e 2) ]; [ (1, e 5); (7, e 1) ] ]
  in
  check_int "three distinct PCs" 3 (List.length merged);
  check_bool "sorted by PC" true
    (List.map fst merged = List.sort compare (List.map fst merged));
  check_int "same-PC entries merge" 7
    (Obs.Pcstat.((List.assoc 1 merged).sk_hits))

(* ------------------------------------------------------------------ *)
(* Conservation on real apps                                           *)
(* ------------------------------------------------------------------ *)

let mm = lazy (Suite.load_app Darsie_workloads.Matmul.workload)

let profiled machine =
  let r = Suite.run_app ~pcstat:true (Lazy.force mm) machine in
  r.Suite.gpu

(* Every machine: the per-PC table must reproduce the per-SM stall
   attribution bucket-by-bucket (enforced by check_attribution) and the
   occurrence counters must match the aggregate Stats. *)
let test_conservation_matmul () =
  List.iter
    (fun machine ->
      let g = profiled machine in
      let name = Suite.machine_name machine in
      (match Gpu.check_attribution g with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s: %s" name e);
      let p = Option.get g.Gpu.pcstat in
      check_int (name ^ ": per-PC cycles = num_sms * cycles")
        (g.Gpu.cycles * Array.length g.Gpu.per_sm)
        (Obs.Pcstat.total_cycles p);
      check_int (name ^ ": issues") g.Gpu.stats.Stats.issued
        (Obs.Pcstat.total_issues p);
      check_int (name ^ ": skips") g.Gpu.stats.Stats.skipped_prefetch
        (Obs.Pcstat.total_skips p);
      check_int (name ^ ": drops") g.Gpu.stats.Stats.dropped_issue
        (Obs.Pcstat.total_drops p);
      check_int (name ^ ": fetches") g.Gpu.stats.Stats.fetched
        (Obs.Pcstat.total_fetches p))
    [ Suite.Base; Suite.Uv; Suite.Dac_ideal; Suite.Darsie ]

(* DARSIE's pre-fetch skips never pass through the SM's fetch stage; the
   profile learns them from skip-table telemetry, so telemetry hits must
   equal the skipped_prefetch counter exactly. *)
let test_darsie_telemetry_agrees () =
  let g = profiled Suite.Darsie in
  let hits =
    List.fold_left
      (fun acc (_, e) -> acc + e.Obs.Pcstat.sk_hits)
      0 g.Gpu.skip_telemetry
  in
  check_int "telemetry hits = skipped_prefetch"
    g.Gpu.stats.Stats.skipped_prefetch hits;
  check_bool "telemetry has entries" true (g.Gpu.skip_telemetry <> []);
  List.iter
    (fun (pc, e) ->
      check_bool
        (Printf.sprintf "pc %d allocs > 0 when hit" pc)
        true
        (e.Obs.Pcstat.sk_hits = 0 || e.Obs.Pcstat.sk_allocs > 0))
    g.Gpu.skip_telemetry

let test_profiling_non_interference () =
  let app = Lazy.force mm in
  let off = Suite.run_app app Suite.Darsie in
  let on = Suite.run_app ~pcstat:true app Suite.Darsie in
  check_int "same cycles with and without profiling"
    off.Suite.gpu.Gpu.cycles on.Suite.gpu.Gpu.cycles

(* ------------------------------------------------------------------ *)
(* Annotate renderer                                                   *)
(* ------------------------------------------------------------------ *)

let test_annotate_rows () =
  let g = profiled Suite.Darsie in
  let kernel = (Lazy.force mm).Suite.kinfo.Darsie_timing.Kinfo.kernel in
  let rows = Annotate.rows ~kernel ~machines:[ ("DARSIE", g) ] in
  check_int "one row per static instruction"
    (Array.length kernel.Darsie_isa.Kernel.insts)
    (List.length rows);
  let p = Option.get g.Gpu.pcstat in
  let row_sum =
    List.fold_left (fun acc (r : Annotate.row) -> acc +. r.Annotate.cycle_pct)
      0.0 rows
  in
  let un_pct =
    100.0
    *. float_of_int (Obs.Attrib.total (Obs.Pcstat.unattributed p))
    /. float_of_int (Obs.Pcstat.total_cycles p)
  in
  Alcotest.(check (float 0.01)) "cycle% sums to 100 with the none-row"
    100.0 (row_sum +. un_pct);
  List.iter
    (fun (r : Annotate.row) ->
      check_bool "skip% within [0, 100]" true
        (List.for_all (fun (_, s) -> s >= 0.0 && s <= 100.0) r.Annotate.skip_pcts))
    rows

let test_annotate_render () =
  let g = profiled Suite.Darsie in
  let kernel = (Lazy.force mm).Suite.kinfo.Darsie_timing.Kinfo.kernel in
  let text =
    Annotate.render ~top:3 ~kernel ~app_name:"MM"
      ~machines:[ ("DARSIE", g) ] ()
  in
  let contains needle =
    let nl = String.length needle and hl = String.length text in
    let rec go i = i + nl <= hl && (String.sub text i nl = needle || go (i + 1)) in
    go 0
  in
  check_bool "header names the app and machine" true
    (contains "darsie annotate: MM on DARSIE");
  check_bool "lists the disassembly" true (contains "fma.f32");
  check_bool "has the unattributed row" true (contains "<no instruction>");
  check_bool "has the hotspot summary" true (contains "hottest 3 instructions")

(* An unprofiled run must be rejected loudly, not rendered as zeros. *)
let test_annotate_requires_pcstat () =
  let r = Suite.run_app (Lazy.force mm) Suite.Darsie in
  let kernel = (Lazy.force mm).Suite.kinfo.Darsie_timing.Kinfo.kernel in
  Alcotest.check_raises "unprofiled run rejected"
    (Invalid_argument "Annotate: run was not profiled (pcstat = false)")
    (fun () ->
      ignore (Annotate.rows ~kernel ~machines:[ ("DARSIE", r.Suite.gpu) ]))

(* ------------------------------------------------------------------ *)
(* Metrics export with per_pc                                          *)
(* ------------------------------------------------------------------ *)

let test_metrics_per_pc () =
  let r = Suite.run_app ~pcstat:true (Lazy.force mm) Suite.Darsie in
  let doc = Metrics.of_run ~app:"MM" r in
  (match Metrics.validate doc with
  | Ok () -> ()
  | Error e -> Alcotest.failf "profiled metrics rejected: %s" e);
  (* The validator must catch a tampered per_pc section. *)
  let module J = Obs.Json in
  let tampered =
    match doc with
    | J.Obj fields ->
      J.Obj
        (List.map
           (function
             | "per_pc", J.Obj pf ->
               ( "per_pc",
                 J.Obj
                   (List.map
                      (function
                        | "unattributed", _ ->
                          ("unattributed", J.Obj [ ("idle", J.Int 1) ])
                        | kv -> kv)
                      pf) )
             | kv -> kv)
           fields)
    | _ -> Alcotest.fail "metrics doc is not an object"
  in
  check_bool "tampered per_pc rejected" true
    (Result.is_error (Metrics.validate tampered));
  (* One cycle moved between two buckets of one instruction keeps the
     grand total; only the bucket-wise identity against
     stall_attribution.total catches it. *)
  let field k f = function
    | J.Obj fs ->
      J.Obj (List.map (fun (k', v) -> (k', if k' = k then f v else v)) fs)
    | j -> j
  in
  let bump k d = field k (function J.Int n -> J.Int (n + d) | j -> j) in
  let move_one_cycle s = bump "active" (-1) (bump "idle" 1 s) in
  let shifted =
    field "per_pc"
      (field "rows" (function
        | J.List (r :: rs) -> J.List (field "stall" move_one_cycle r :: rs)
        | j -> j))
      doc
  in
  check_bool "per-PC charges no longer the bucket-wise total" true
    (Result.is_error (Metrics.validate shifted));
  (* An unprofiled run exports per_pc = null and still validates. *)
  let plain = Suite.run_app (Lazy.force mm) Suite.Darsie in
  let plain_doc = Metrics.of_run ~app:"MM" plain in
  check_bool "per_pc is null when profiling off" true
    (J.member "per_pc" plain_doc = Some J.Null);
  check_bool "plain doc validates" true (Result.is_ok (Metrics.validate plain_doc))

(* ------------------------------------------------------------------ *)
(* Trendline store                                                     *)
(* ------------------------------------------------------------------ *)

let sample_record () =
  {
    Trendline.date = "2026-08-06";
    label = "test";
    wall_s = 4.5;
    repeats = 3;
    cycles_per_sec = 20000.0;
    gmeans = [ ("speedup_2d_darsie", 1.30); ("speedup_2d_dac", 1.11) ];
    per_app_ipc = [ ("MM", 3.1); ("LIB", 1.7) ];
    per_app_cycles = [ ("MM", 7000); ("LIB", 8600) ];
    per_app_coverage = [ ("MM", 0.92); ("LIB", 0.88) ];
    host_phases = [ ("sim.run", 3.8); ("trace.load", 0.4) ];
    cache_hit_rate = Some 0.5;
  }

let test_trendline_roundtrip () =
  let r = sample_record () in
  match Trendline.of_json (Trendline.to_json r) with
  | Ok r' ->
    check_bool "round-trips exactly" true (r = r');
    let path = Filename.temp_file "darsie_trend" ".json" in
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        Trendline.write_file path r;
        match Trendline.read_file path with
        | Ok r'' -> check_bool "file round-trips" true (r = r'')
        | Error e -> Alcotest.failf "read_file: %s" e)
  | Error e -> Alcotest.failf "of_json: %s" e

let test_trendline_rejects_bad_schema () =
  let module J = Obs.Json in
  let doc =
    match Trendline.to_json (sample_record ()) with
    | J.Obj fields ->
      J.Obj
        (List.map
           (function
             | "schema_version", _ -> ("schema_version", J.Int 999)
             | kv -> kv)
           fields)
    | _ -> Alcotest.fail "record json is not an object"
  in
  check_bool "future schema rejected" true
    (Result.is_error (Trendline.of_json doc))

let test_measure_min_of_n () =
  (* Fake clock: each call advances by a scripted delta, so run k takes
     exactly deltas.(k) seconds and min-of-N must pick the smallest. *)
  let now = ref 0.0 in
  let deltas = [| 5.0; 2.0; 9.0 |] in
  let calls = ref 0 in
  let clock () = !now in
  let f () =
    now := !now +. deltas.(!calls mod 3);
    incr calls;
    !calls
  in
  let result, best = Trendline.measure ~clock ~repeats:3 f in
  check_int "ran three times" 3 result;
  Alcotest.(check (float 1e-9)) "kept the minimum" 2.0 best;
  Alcotest.check_raises "repeats < 1 rejected"
    (Invalid_argument "Trendline.measure: repeats < 1") (fun () ->
      ignore (Trendline.measure ~repeats:0 (fun () -> ())))

let test_regression_gate () =
  let base = sample_record () in
  let self = Trendline.compare_records ~baseline:base ~current:base () in
  check_bool "self-compare is clean" true (Trendline.regressions self = []);
  (* Inject a synthetic regression: MM got 5% slower (more cycles) and
     the 2D geomean dropped 5%. Both are far beyond the 0.5% gate. *)
  let worse =
    {
      base with
      Trendline.per_app_cycles = [ ("MM", 7350); ("LIB", 8600) ];
      gmeans = [ ("speedup_2d_darsie", 1.235); ("speedup_2d_dac", 1.11) ];
    }
  in
  let verdicts = Trendline.compare_records ~baseline:base ~current:worse () in
  let bad = Trendline.regressions verdicts in
  let names = List.map (fun (v : Trendline.verdict) -> v.Trendline.metric) bad in
  check_bool "cycles regression detected" true
    (List.mem "cycles.MM" names);
  check_bool "geomean regression detected" true
    (List.mem "gmean.speedup_2d_darsie" names);
  check_int "nothing else flagged" 2 (List.length bad);
  (* Wall-time wobble below its loose threshold must NOT flag. *)
  let wobbly = { base with Trendline.wall_s = base.Trendline.wall_s *. 1.2 } in
  check_bool "20% wall noise tolerated" true
    (Trendline.regressions
       (Trendline.compare_records ~baseline:base ~current:wobbly ())
    = []);
  (* An improvement must never flag. *)
  let better =
    { base with Trendline.per_app_cycles = [ ("MM", 6000); ("LIB", 8000) ] }
  in
  check_bool "improvements pass" true
    (Trendline.regressions
       (Trendline.compare_records ~baseline:base ~current:better ())
    = [])

let test_render_verdicts () =
  let base = sample_record () in
  let worse =
    { base with Trendline.per_app_cycles = [ ("MM", 8000); ("LIB", 8600) ] }
  in
  let text =
    Trendline.render_verdicts
      (Trendline.compare_records ~baseline:base ~current:worse ())
  in
  let contains needle =
    let nl = String.length needle and hl = String.length text in
    let rec go i = i + nl <= hl && (String.sub text i nl = needle || go (i + 1)) in
    go 0
  in
  check_bool "mentions the metric" true (contains "cycles.MM");
  check_bool "flags the regression" true (contains "REGRESSED");
  check_string "first line is the header" "metric"
    (String.sub text 0 6)

let () =
  Alcotest.run "darsie_prof"
    [
      ( "pcstat",
        [
          Alcotest.test_case "occurrence counters" `Quick test_pcstat_counters;
          Alcotest.test_case "charge and none-row" `Quick
            test_pcstat_charge_none_row;
          Alcotest.test_case "latency buckets" `Quick test_pcstat_lat_buckets;
          Alcotest.test_case "telemetry merge" `Quick test_merge_skip_telemetry;
        ] );
      ( "conservation",
        [
          Alcotest.test_case "per-PC charges reproduce attribution (MM)"
            `Slow test_conservation_matmul;
          Alcotest.test_case "DARSIE telemetry = skipped_prefetch" `Slow
            test_darsie_telemetry_agrees;
          Alcotest.test_case "profiling does not perturb timing" `Slow
            test_profiling_non_interference;
        ] );
      ( "annotate",
        [
          Alcotest.test_case "rows cover the kernel, cycle% sums to 100"
            `Slow test_annotate_rows;
          Alcotest.test_case "rendered listing" `Slow test_annotate_render;
          Alcotest.test_case "rejects unprofiled runs" `Slow
            test_annotate_requires_pcstat;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "per_pc section validates and is gated" `Slow
            test_metrics_per_pc;
        ] );
      ( "trendline",
        [
          Alcotest.test_case "json round-trip" `Quick test_trendline_roundtrip;
          Alcotest.test_case "schema gate" `Quick
            test_trendline_rejects_bad_schema;
          Alcotest.test_case "min-of-N measurement" `Quick
            test_measure_min_of_n;
          Alcotest.test_case "regression gate" `Quick test_regression_gate;
          Alcotest.test_case "verdict rendering" `Quick test_render_verdicts;
        ] );
    ]
