(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (§5–6), then runs Bechamel micro-benchmarks of the core
   mechanisms. Absolute numbers come from our scaled-down timing model
   (DESIGN.md §3); the shapes — who wins, by roughly what factor — are the
   reproduced quantity, recorded against the paper in EXPERIMENTS.md. *)

open Darsie_harness
module J = Darsie_obs.Json
module Tel = Darsie_telemetry.Telemetry
module Host_trace = Darsie_telemetry.Host_trace

let section title paper =
  Printf.printf "\n================================================================\n";
  Printf.printf "%s\n" title;
  Printf.printf "  paper reference: %s\n" paper;
  Printf.printf "================================================================\n"

(* Machine-readable summary of the evaluation: the same rows the rendered
   tables print, under the shared [schema_version] so downstream tooling
   can diff bench runs. *)
let json_summary m =
  let speedup_row (r : Figures.fig8_row) =
    J.Obj
      [
        ("app", J.String r.Figures.abbr);
        ("uv", J.Float r.Figures.uv);
        ("dac_ideal", J.Float r.Figures.dac);
        ("darsie", J.Float r.Figures.darsie);
      ]
  in
  let reduction_row (r : Figures.reduction_row) =
    J.Obj
      [
        ("app", J.String r.Figures.abbr);
        ("machine", J.String r.Figures.machine);
        ("uniform_pct", J.Float r.Figures.uniform_pct);
        ("affine_pct", J.Float r.Figures.affine_pct);
        ("unstructured_pct", J.Float r.Figures.unstructured_pct);
        ("total_pct", J.Float r.Figures.total_pct);
      ]
  in
  let energy_row (r : Figures.fig11_row) =
    J.Obj
      [
        ("app", J.String r.Figures.abbr);
        ("uv_pct", J.Float r.Figures.uv);
        ("dac_ideal_pct", J.Float r.Figures.dac);
        ("darsie_pct", J.Float r.Figures.darsie);
      ]
  in
  let rows8, g1, g2, _ = Figures.fig8 m in
  let rows9, _ = Figures.fig9 m in
  let rows10, _ = Figures.fig10 m in
  let rows11, ge1, ge2, _ = Figures.fig11 m in
  let overhead, _ = Figures.darsie_overhead m in
  J.Obj
    [
      ("schema_version", J.Int Darsie_obs.Export.schema_version);
      ("speedup", J.List (List.map speedup_row rows8));
      ("speedup_gmean_1d", speedup_row g1);
      ("speedup_gmean_2d", speedup_row g2);
      ("instr_reduction_1d", J.List (List.map reduction_row rows9));
      ("instr_reduction_2d", J.List (List.map reduction_row rows10));
      ("energy_reduction", J.List (List.map energy_row rows11));
      ("energy_gmean_1d", energy_row ge1);
      ("energy_gmean_2d", energy_row ge2);
      ("darsie_energy_overhead_pct", J.Float overhead);
    ]

let run_figures m =
  section "Table 1 - Applications studied" "13 apps, 5x 1D TBs + 8x 2D TBs";
  print_string (Figures.table1 ());
  section "Table 2 - Baseline GPU"
    "GTX 1080 Ti-style SMs (we model 4 SMs; per-SM parameters per paper)";
  print_string (Figures.table2 ());
  section "Figure 1 - Redundant instructions per thread-grouping level"
    "TB-wide redundancy dominates: ~33% of executed instructions on average";
  let _, avg, text = Figures.fig1 () in
  print_string text;
  Printf.printf
    "AVG TB-wide redundancy: %.1f%% (paper: ~33%%); grid %.1f%%, warp %.1f%%\n"
    avg.Figures.tb_pct avg.Figures.grid_pct avg.Figures.warp_pct;
  section "Figure 2 - TB-redundancy taxonomy (dynamic)"
    "affine+unstructured pervasive in 2D TBs, largely absent in 1D";
  let _, text = Figures.fig2 () in
  print_string text;
  section "Figure 6 - Compiler markings for the MM kernel"
    "DR/CR/V markings on register-allocated code";
  print_string (Figures.fig6 ());
  section "Figure 8 - Speedup over baseline"
    "GMEAN-2D: DARSIE 1.3, DAC-IDEAL 1.11, UV 1.02; DARSIE ~= DAC on 1D";
  let _, g1, g2, text = Figures.fig8 m in
  print_string text;
  Printf.printf
    "GMEAN-2D: UV %.2f (paper 1.02)  DAC %.2f (paper 1.11)  DARSIE %.2f (paper 1.30)\n"
    g2.Figures.uv g2.Figures.dac g2.Figures.darsie;
  Printf.printf "GMEAN-1D: DAC %.2f ~ DARSIE %.2f (paper: roughly equal)\n"
    g1.Figures.dac g1.Figures.darsie;
  section "Figure 9 - Instruction reduction, 1D benchmarks"
    "GMEAN: DARSIE ~19%, LIB ~75%; mostly uniform redundancy";
  let rows9, text = Figures.fig9 m in
  print_string text;
  ignore rows9;
  section "Figure 10 - Instruction reduction, 2D benchmarks"
    "GMEAN: DARSIE 17%, DAC-IDEAL 11%; only DARSIE removes unstructured";
  let rows10, text = Figures.fig10 m in
  print_string text;
  ignore rows10;
  section "Figure 11 - Energy reduction"
    "GMEAN: DARSIE 25%, DAC-IDEAL 20%, UV 7%";
  let _, ge1, ge2, text = Figures.fig11 m in
  print_string text;
  Printf.printf "GMEAN-2D energy reduction: UV %.1f%%  DAC %.1f%%  DARSIE %.1f%%\n"
    ge2.Figures.uv ge2.Figures.dac ge2.Figures.darsie;
  ignore ge1;
  let ov, ov_text = Figures.darsie_overhead m in
  print_string ov_text;
  Printf.printf "(paper: 0.95%% dynamic-energy overhead)\n";
  ignore ov;
  section "Figure 12 - Effect of synchronization"
    "DARSIE 1.3 vs NO-CF-SYNC 1.39; SILICON-SYNC overhead small except LIB (-50%)";
  let _, g12, text = Figures.fig12 m in
  print_string text;
  Printf.printf "GMEAN: DARSIE %.2f, NO-CF-SYNC %.2f, SILICON-SYNC %.2f\n"
    g12.Figures.darsie g12.Figures.darsie_no_cf_sync g12.Figures.silicon_sync;
  section "Table 3 - Comparison with related work" "capability matrix";
  print_string (Figures.table3 ());
  section "Section 6.3 - Area estimation"
    "82-bit skip entries; 5.31 kB total; 2.1% of the register file";
  let _, text = Figures.area () in
  print_string text

let run_ablations () =
  section "Ablations - DARSIE design-space sweeps"
    "the paper sizes the PC coalescer experimentally (2 ports) and fixes \
     8 skip entries + 32 rename regs per TB";
  List.iter
    (fun sweep -> print_endline (Ablations.render sweep))
    (Ablations.run_default ());
  section "Ablation - warp scheduler sensitivity"
    "the paper swept schedulers and found these regular apps insensitive, \
     GTO best";
  let apps =
    List.map Suite.load_app
      [ Darsie_workloads.Matmul.workload; Darsie_workloads.Libor.workload;
        Darsie_workloads.Hotspot.workload ]
  in
  print_string (Ablations.render_schedulers (Ablations.scheduler_comparison apps));
  section "Analysis - mechanism efficiency vs the TB-IDEAL bound"
    "how much of the idealized elimination DARSIE's real hardware \
     captures; on memory-bound stencils the ideal can even lose because \
     the removed ALU work was hiding DRAM latency";
  print_string (Ablations.render_efficiency (Ablations.mechanism_efficiency apps))

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks of the core mechanisms                    *)
(* ------------------------------------------------------------------ *)

let micro_tests () =
  let open Bechamel in
  let mm = Darsie_workloads.Matmul.workload in
  let small =
    Darsie_isa.Parser.parse_kernel
      {|
.kernel micro
.params 1
  mov.u32 %r0, %tid.x;
  mul.lo.u32 %r1, %r0, 4;
  add.u32 %r2, %r1, %param0;
  ld.global.u32 %r3, [%r2+0];
  add.u32 %r3, %r3, 1;
  st.global.u32 [%r2+0], %r3;
  exit;
|}
  in
  let emulate () =
    let mem = Darsie_emu.Memory.create () in
    let base = Darsie_emu.Memory.alloc mem 4096 in
    let launch =
      Darsie_isa.Kernel.launch small ~grid:(Darsie_isa.Kernel.dim3 4)
        ~block:(Darsie_isa.Kernel.dim3 16 ~y:16)
        ~params:[| base |]
    in
    ignore (Darsie_emu.Interp.run mem launch)
  in
  let analyze_mm =
    let p = mm.Darsie_workloads.Workload.prepare ~scale:1 in
    let k = p.Darsie_workloads.Workload.launch.Darsie_isa.Kernel.kernel in
    fun () -> ignore (Darsie_compiler.Analysis.analyze k)
  in
  let skip_table () =
    let t = Darsie_core.Skip_table.create ~max_entries:8 ~rename_regs:32 in
    for pc = 0 to 7 do
      Darsie_core.Skip_table.allocate t ~pc ~occ:0 ~leader:0 ~mem_dep:false;
      Darsie_core.Skip_table.mark_writeback t ~pc ~occ:0 ~majority:0xFF;
      for w = 1 to 7 do
        Darsie_core.Skip_table.mark_passed t ~pc ~occ:0 ~warp:w ~majority:0xFF
      done
    done
  in
  let timing_darsie =
    let app = Suite.load_app Darsie_workloads.Dct8x8.workload in
    fun () ->
      ignore
        (Darsie_timing.Gpu.run_exn
           (Darsie_core.Darsie_engine.factory ())
           app.Suite.kinfo app.Suite.trace)
  in
  Test.make_grouped ~name:"darsie"
    [
      Test.make ~name:"emulator: 1K-thread kernel" (Staged.stage emulate);
      Test.make ~name:"compiler: analyze MM" (Staged.stage analyze_mm);
      Test.make ~name:"skip-table: fill/drain 8 PCs" (Staged.stage skip_table);
      Test.make ~name:"timing: DARSIE on DCT8x8" (Staged.stage timing_darsie);
    ]

let run_micro () =
  let open Bechamel in
  print_newline ();
  print_endline "Bechamel micro-benchmarks (time per run):";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false
      ~predictors:[| Measure.run |]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~stabilize:false ()
  in
  let raw = Benchmark.all cfg instances (micro_tests ()) in
  let results = Analyze.all ols (List.hd instances) raw in
  Hashtbl.iter
    (fun name ols_result ->
      match Analyze.OLS.estimates ols_result with
      | Some (est :: _) -> Printf.printf "  %-32s %12.0f ns/run\n" name est
      | _ -> Printf.printf "  %-32s (no estimate)\n" name)
    results

let flag_value name =
  let rec scan = function
    | f :: v :: _ when f = name -> Some v
    | _ :: rest -> scan rest
    | [] -> None
  in
  scan (Array.to_list Sys.argv)

let json_path () = flag_value "--json"

(* --trend FILE appends tonight's point to the bench trajectory: the
   matrix build is re-run --trend-repeats times (min-of-N wall time) and
   summarized into one Trendline record for bench-compare to gate on. *)
let trend_path () = flag_value "--trend"

let trend_repeats () =
  match Option.bind (flag_value "--trend-repeats") int_of_string_opt with
  | Some n when n >= 1 -> n
  | _ -> 1

(* --telemetry FILE captures host spans/counters for the whole bench run
   and writes the validated host_telemetry document there; --progress /
   --progress-json stream pool heartbeats to stderr. Spans are also
   enabled implicitly under --trend so the trajectory record can carry
   per-phase host wall times. *)
let telemetry_path () = flag_value "--telemetry"

let iso_date () =
  let tm = Unix.localtime (Unix.time ()) in
  Printf.sprintf "%04d-%02d-%02d" (tm.Unix.tm_year + 1900) (tm.Unix.tm_mon + 1)
    tm.Unix.tm_mday

let has_flag name = Array.exists (( = ) name) Sys.argv

(* -j/--jobs N fans the (app x machine) matrix out over N domains
   (default: all available cores; -j 1 reproduces the serial build
   bit-for-bit). --no-cache disables the persistent functional-trace
   cache; --cache-dir D relocates it (default _cache/). *)
let jobs () =
  let explicit =
    match Option.bind (flag_value "--jobs") int_of_string_opt with
    | Some n -> Some n
    | None -> Option.bind (flag_value "-j") int_of_string_opt
  in
  match explicit with
  | Some n when n >= 1 -> n
  | Some _ -> 1
  | None -> Darsie_harness.Parallel.default_jobs ()

let cache () =
  if has_flag "--no-cache" then None
  else
    let dir =
      Option.value (flag_value "--cache-dir")
        ~default:Darsie_trace.Cache.default_dir
    in
    Some (Darsie_trace.Cache.create ~dir ())

let () =
  let repeats = if trend_path () = None then 1 else trend_repeats () in
  let jobs = jobs () in
  let cache = cache () in
  if has_flag "--progress-json" then Tel.Progress.configure Tel.Progress.Ndjson
  else if has_flag "--progress" then Tel.Progress.configure Tel.Progress.Human;
  if telemetry_path () <> None || trend_path () <> None then Tel.enable ();
  (* --no-fast-forward steps every cycle instead of jumping over idle
     spans; deterministic metrics are bit-identical either way, only the
     wall clock moves. *)
  let cfg =
    if has_flag "--no-fast-forward" then
      {
        Darsie_timing.Config.default with
        Darsie_timing.Config.fast_forward = false;
      }
    else Darsie_timing.Config.default
  in
  Printf.printf
    "\nBuilding the evaluation matrix (13 apps x 7 machines%s, %d job(s), \
     trace cache %s%s)...\n%!"
    (if repeats > 1 then Printf.sprintf ", best of %d builds" repeats else "")
    jobs
    (match cache with
    | Some c -> Darsie_trace.Cache.dir c
    | None -> "off")
    (if cfg.Darsie_timing.Config.fast_forward then ""
     else ", fast-forward off");
  let m, wall_s =
    Trendline.measure ~clock:Unix.gettimeofday ~repeats (fun () ->
        Suite.build_matrix ~cfg ~jobs ?cache ())
  in
  (match cache with
  | Some c -> Printf.printf "%s\n" (Darsie_trace.Cache.summary c)
  | None -> ());
  run_figures m;
  run_ablations ();
  (try run_micro ()
   with e ->
     Printf.printf "micro-benchmarks skipped: %s\n" (Printexc.to_string e));
  (match json_path () with
  | None -> ()
  | Some path ->
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        output_string oc (J.pretty_to_string (json_summary m));
        output_char oc '\n');
    Printf.printf "bench summary: %s\n" path);
  (match trend_path () with
  | None -> ()
  | Some path ->
    let label =
      match Sys.getenv_opt "DARSIE_BENCH_LABEL" with
      | Some l -> l
      | None -> "local"
    in
    let snap = Tel.snapshot () in
    let host_phases =
      List.map
        (fun (name, (_count, _total_ns, self_ns)) ->
          (name, float_of_int self_ns /. 1e9))
        (Tel.phases snap)
    in
    let counter name =
      match List.assoc_opt name snap.Tel.sn_counters with
      | Some v -> v
      | None -> 0
    in
    let cache_hit_rate =
      let hits = counter "trace_cache.hits"
      and misses = counter "trace_cache.misses" in
      if hits + misses = 0 then None
      else Some (float_of_int hits /. float_of_int (hits + misses))
    in
    let record =
      Trendline.of_matrix ~host_phases ?cache_hit_rate ~date:(iso_date ())
        ~label ~wall_s ~repeats m
    in
    Trendline.write_file path record;
    Printf.printf "bench trajectory record: %s (%.2fs wall, min of %d)\n" path
      wall_s repeats);
  (match telemetry_path () with
  | None -> ()
  | Some path ->
    let doc = Host_trace.document (Tel.snapshot ()) in
    (match Metrics.validate doc with
    | Ok () -> ()
    | Error msg ->
      Printf.eprintf "bench: telemetry document invalid (%s)\n" msg;
      exit 2);
    Metrics.write_file path doc;
    Printf.printf "telemetry: %s\n" path);
  print_endline "\nbench: done."
