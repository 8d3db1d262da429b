(* Tests for the experiment harness: aggregation helpers, rendering, the
   suite matrix, and the figure projections on a reduced app set (full
   runs live in bench/main.exe). *)

open Darsie_harness


let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

let check_float = Alcotest.(check (float 1e-9))

let test_geomean () =
  check_float "geomean of equal values" 2.0 (Stats_util.geomean [ 2.0; 2.0 ]);
  check_float "geomean 1x4" 2.0 (Stats_util.geomean [ 1.0; 4.0 ]);
  check_float "empty" 1.0 (Stats_util.geomean []);
  check_bool "zero clamps, does not zero out" true
    (Stats_util.geomean [ 0.0; 100.0 ] > 0.0);
  check_float "mean" 2.5 (Stats_util.mean [ 1.0; 4.0 ]);
  check_float "mean empty" 0.0 (Stats_util.mean []);
  check_float "percent" 25.0 (Stats_util.percent 1 4);
  check_float "percent of zero" 0.0 (Stats_util.percent 1 0)

let test_render () =
  let s = Render.table ~header:[ "a"; "bb" ] [ [ "x"; "1" ]; [ "yy"; "22" ] ] in
  let lines = String.split_on_char '\n' s in
  check_int "header + sep + 2 rows + trailing" 5 (List.length lines);
  check_bool "separator present" true
    (String.length (List.nth lines 1) > 0
    && String.for_all (fun c -> c = '-' || c = ' ') (List.nth lines 1));
  check_bool "pct format" true (Render.pct 25.04 = "25.0%");
  check_bool "f2 format" true (Render.f2 1.234 = "1.23")

(* A reduced matrix: two fast apps, three machines. *)
let small_matrix =
  lazy
    (Suite.build_matrix
       ~machines:Suite.all_machines
       ~apps:
         [ Darsie_workloads.Floyd_warshall.workload;
           Darsie_workloads.Fast_walsh.workload ]
       ())

let test_matrix_contents () =
  let m = Lazy.force small_matrix in
  check_int "two apps" 2 (List.length m.Suite.apps);
  check_int "fourteen runs" 14 (Hashtbl.length m.Suite.runs);
  let base = Suite.get m "FWS" Suite.Base in
  check_bool "base machine recorded" true (base.Suite.machine = Suite.Base);
  check_float "base speedup is 1" 1.0 (Suite.speedup m "FWS" Suite.Base);
  check_bool "darsie speedup sane" true
    (let s = Suite.speedup m "FWS" Suite.Darsie in
     s > 0.8 && s < 3.0);
  check_bool "unknown app raises" true
    (match Suite.get m "MM" Suite.Base with
    | exception Not_found -> true
    | _ -> false)

let test_matrix_reductions () =
  let m = Lazy.force small_matrix in
  check_float "base eliminates nothing" 0.0 (Suite.instr_reduction m "FW" Suite.Base);
  check_bool "darsie eliminates on FWS" true
    (Suite.instr_reduction m "FWS" Suite.Darsie > 5.0);
  check_bool "energy reduction plausible" true
    (let e = Suite.energy_reduction m "FWS" Suite.Darsie in
     e > -10.0 && e < 80.0)

let test_machine_names () =
  Alcotest.(check (list string))
    "names"
    [ "BASE"; "UV"; "DAC-IDEAL"; "DARSIE"; "DARSIE-IGNORE-STORE";
      "DARSIE-NO-CF-SYNC"; "SILICON-SYNC" ]
    (List.map Suite.machine_name Suite.all_machines)

let test_figures_on_small_matrix () =
  let m = Lazy.force small_matrix in
  let rows9, text = Figures.fig9 m in
  check_bool "fig9 has FW rows" true
    (List.exists
       (fun (r : Figures.reduction_row) -> r.Figures.abbr = "FW")
       rows9);
  check_bool "fig9 renders" true (String.length text > 0);
  (* every figure projection works on this matrix *)
  let rows8, _, _, text8 = Figures.fig8 m in
  check_int "fig8 rows" 2 (List.length rows8);
  check_bool "fig8 renders" true (String.length text8 > 0);
  let rows11, _, _, text11 = Figures.fig11 m in
  check_int "fig11 rows" 2 (List.length rows11);
  check_bool "fig11 renders" true (String.length text11 > 0);
  let rows12, gmean12, text12 = Figures.fig12 m in
  check_int "fig12 rows" 2 (List.length rows12);
  check_bool "fig12 gmeans sane" true
    (gmean12.Figures.darsie > 0.5 && gmean12.Figures.silicon_sync <= 1.05);
  check_bool "fig12 renders" true (String.length text12 > 0);
  let ov, _ = Figures.darsie_overhead m in
  check_bool "overhead fraction small" true (ov >= 0.0 && ov < 5.0)

let test_table_renderers () =
  check_bool "table1 mentions MM" true
    (let t = Figures.table1 () in
     String.length t > 0
     &&
     let re = String.split_on_char '\n' t in
     List.exists (fun l -> String.length l >= 2 && String.sub l 0 2 <> "  "
                           && String.length l > 0) re);
  check_bool "table2 mentions GTO" true
    (let t = Figures.table2 () in
     String.length t > 50);
  check_bool "table3 rows" true
    (let t = Figures.table3 () in
     String.length t > 100);
  let a, text = Figures.area () in
  check_bool "area text" true (String.length text > 20);
  check_int "area entry bits" 82 a.Darsie_energy.Area.skip_entry_bits

let test_fig6_contains_markings () =
  let t = Figures.fig6 () in
  let lines = String.split_on_char '\n' t in
  check_bool "has CR lines" true
    (List.exists (fun l -> String.length l >= 2 && String.sub l 0 2 = "CR") lines);
  check_bool "has DR lines" true
    (List.exists (fun l -> String.length l >= 2 && String.sub l 0 2 = "DR") lines)

(* A fresh document from every real writer is detected as its own kind
   and passes the one validator; an unknown kind tag is rejected. *)
let test_writers_validate () =
  let module J = Darsie_obs.Json in
  let m = Lazy.force small_matrix in
  let fws = Darsie_workloads.Fast_walsh.workload in
  let campaign =
    Darsie_fuzz.Campaign.run
      {
        Darsie_fuzz.Campaign.seed = 0;
        count = 3;
        jobs = Some 1;
        max_shrink = 0;
        corpus_dir = None;
        inject = false;
        base_cfg = Darsie_timing.Config.default;
      }
  in
  let docs =
    [
      ("metrics", Metrics.of_run ~app:"FWS" (Suite.get m "FWS" Suite.Darsie));
      ( "check_report",
        Checker.to_json (Checker.check_suite ~oracle:false ~apps:[ fws ] ()) );
      ("fuzz_campaign", Darsie_fuzz.Campaign.to_json campaign);
      ( "sensitivity_sweep",
        Sensitivity.to_json
          (Sensitivity.run ~apps:[ fws ] ~issue_widths:[ 1 ] ~mshr_limits:[ 0 ]
             ~smem_banks:0 ()) );
      ( "host_telemetry",
        Darsie_telemetry.Host_trace.document
          (Darsie_telemetry.Telemetry.snapshot ()) );
      ( "bench_record",
        Trendline.to_json
          (Trendline.of_matrix ~date:"2026-01-01" ~label:"test" ~wall_s:1.0
             ~repeats:1 m) );
    ]
  in
  List.iter
    (fun (kind, doc) ->
      Alcotest.(check (result string string))
        (kind ^ " detected") (Ok kind) (Metrics.kind_of doc);
      Alcotest.(check (result unit string))
        (kind ^ " validates") (Ok ()) (Metrics.validate doc))
    docs;
  Alcotest.(check (list string)) "a writer per kind" Metrics.kinds
    (List.map fst docs);
  check_bool "unknown kind rejected" true
    (Result.is_error (Metrics.validate (J.Obj [ ("kind", J.String "bogus") ])))

let () =
  Alcotest.run "darsie_harness"
    [
      ( "stats-util",
        [
          Alcotest.test_case "geomean/mean/percent" `Quick test_geomean;
          Alcotest.test_case "render" `Quick test_render;
        ] );
      ( "suite",
        [
          Alcotest.test_case "matrix contents" `Quick test_matrix_contents;
          Alcotest.test_case "reductions" `Quick test_matrix_reductions;
          Alcotest.test_case "machine names" `Quick test_machine_names;
        ] );
      ( "figures",
        [
          Alcotest.test_case "small matrix" `Quick test_figures_on_small_matrix;
          Alcotest.test_case "tables" `Quick test_table_renderers;
          Alcotest.test_case "figure 6" `Quick test_fig6_contains_markings;
        ] );
      ( "documents",
        [
          Alcotest.test_case "every writer validates as its kind" `Quick
            test_writers_validate;
        ] );
    ]
