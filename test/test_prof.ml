(* Tests for the per-instruction profiler: Pcstat bookkeeping, the
   cross-layer conservation invariant on real Table-1 apps (per-PC stall
   charges reproduce the per-SM attribution), skip-table telemetry
   agreement with the pipeline counters, and the annotate renderer. *)

open Darsie_harness
module Obs = Darsie_obs
module Gpu = Darsie_timing.Gpu
module Stats = Darsie_timing.Stats

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

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
    ]
