(* The darsie command-line driver.

   Subcommands:
     list                      - Table 1 application registry
     asm APP                   - PTX-lite assembly of a workload kernel
     analyze APP               - compiler markings (Figure 6 style)
     run APP [-m MACHINE]      - functional + timing run of one app
     profile APP [-m MACHINE]  - instrumented run: stall attribution,
                                 JSON metrics, Chrome trace, CSV series
     annotate APP [-m MACHINE] - per-instruction hotspot profile:
                                 annotated disassembly with cycle%,
                                 skip% and stall-bucket columns
     explain APP [-m MACHINE]  - why each DR/CR instruction was (or was
                                 not) eliminated: the skip ledger's
                                 dynamic fates joined with the
                                 compiler's static story
     bench-compare BASE CUR    - diff two bench trajectory records,
                                 exit nonzero on statistical regression
     telemetry-summary FILE    - render a --telemetry document: host
                                 phases ranked by self wall, per-domain
                                 utilization, counter totals
     validate FILE...          - re-prove the identities of written
                                 JSON documents
     limit APP                 - redundancy limit study of one app
     experiment ID             - regenerate a paper figure/table
     check [APP]               - robustness checks: differential oracle,
                                 fault injection, budgeted crash-isolated
                                 suite execution
     area                      - Section 6.3 area estimate

   Every subcommand exits nonzero when a simulation invariant is
   violated (functional check fails, the stall-cycle attribution does
   not sum to the simulated cycles, or the skip ledger does not conserve
   eligible occurrences), so CI catches model drift. *)

open Cmdliner
module W = Darsie_workloads.Workload
module Obs = Darsie_obs
module Tel = Darsie_telemetry.Telemetry
module Host_trace = Darsie_telemetry.Host_trace

let find_app abbr =
  match Darsie_workloads.Registry.find abbr with
  | Some w -> Ok w
  | None ->
    Error
      (Printf.sprintf "unknown application %S (try: %s)" abbr
         (String.concat ", " Darsie_workloads.Registry.abbrs))

let app_arg =
  let doc = "Application abbreviation from Table 1 (e.g. MM, LIB, HS)." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"APP" ~doc)

let or_die = function
  | Ok x -> x
  | Error msg ->
    prerr_endline msg;
    exit 1

let scale_arg =
  let doc = "Input scale factor (1 = default benchmarked size)." in
  Term.(
    const (fun s -> if s < 1 then or_die (Error "--scale must be >= 1"); s)
    $ Arg.(value & opt int 1 & info [ "scale"; "s" ] ~docv:"N" ~doc))

let machine_conv =
  let parse s =
    match String.uppercase_ascii s with
    | "BASE" -> Ok Darsie_harness.Suite.Base
    | "UV" -> Ok Darsie_harness.Suite.Uv
    | "DAC" | "DAC-IDEAL" -> Ok Darsie_harness.Suite.Dac_ideal
    | "DARSIE" -> Ok Darsie_harness.Suite.Darsie
    | "DARSIE-IGNORE-STORE" -> Ok Darsie_harness.Suite.Darsie_ignore_store
    | "DARSIE-NO-CF-SYNC" -> Ok Darsie_harness.Suite.Darsie_no_cf_sync
    | "SILICON-SYNC" -> Ok Darsie_harness.Suite.Silicon_sync
    | _ -> Error (`Msg (Printf.sprintf "unknown machine %S" s))
  in
  Arg.conv (parse, fun fmt m ->
      Format.pp_print_string fmt (Darsie_harness.Suite.machine_name m))

let machine_arg =
  let doc =
    "Machine configuration: BASE, UV, DAC-IDEAL, DARSIE, \
     DARSIE-IGNORE-STORE, DARSIE-NO-CF-SYNC or SILICON-SYNC."
  in
  Arg.(
    value
    & opt machine_conv Darsie_harness.Suite.Darsie
    & info [ "machine"; "m" ] ~docv:"MACHINE" ~doc)

let jobs_arg =
  let doc =
    "Fan simulations out over $(docv) parallel domains. 0 (the default) \
     means all available cores; 1 reproduces the serial execution order \
     bit-for-bit. Merged outputs are byte-identical for every value."
  in
  Arg.(value & opt int 0 & info [ "jobs"; "j" ] ~docv:"N" ~doc)

let effective_jobs n =
  if n >= 1 then n else Darsie_harness.Parallel.default_jobs ()

let cache_arg =
  let doc =
    "Reuse functional traces from the persistent content-addressed cache \
     rooted at $(docv) (created on demand; safe to delete at any time). \
     The trace is machine-invariant, so a cached entry serves every \
     machine configuration and repeat run."
  in
  Arg.(
    value
    & opt ~vopt:(Some Darsie_trace.Cache.default_dir) (some string) None
    & info [ "cache" ] ~docv:"DIR" ~doc)

let cache_of = Option.map (fun dir -> Darsie_trace.Cache.create ~dir ())

let no_ff_arg =
  let doc =
    "Disable event-driven idle-cycle fast-forwarding and step every cycle. \
     Results are bit-identical either way; this is the escape hatch for \
     timing-model debugging."
  in
  Arg.(value & flag & info [ "no-fast-forward" ] ~doc)

(* The three fidelity knobs (docs/machine-model.md). Defaults reproduce
   the stock machine bit-for-bit; every non-default setting is covered
   by the fuzz stack and test_fidelity. *)
let issue_width_arg =
  let doc =
    "Fetch-bundle width: up to $(docv) sequential instructions fetched from \
     the selected warp per cycle (2 models dual-issue superscalar fetch; 1, \
     the default, is the classic single fetch)."
  in
  Arg.(value & opt int 1 & info [ "issue-width" ] ~docv:"W" ~doc)

let mshrs_arg =
  let doc =
    "Per-warp MSHR limit: at most $(docv) outstanding global-load misses per \
     warp, completing out of order; 0 (the default) models unlimited MSHRs."
  in
  Arg.(value & opt int 0 & info [ "mshrs" ] ~docv:"N" ~doc)

let smem_banks_arg =
  let doc =
    "Shared-memory banks with serialized conflict replay: conflicting \
     accesses replay through $(docv) banks one cycle per extra bank access, \
     holding the shared port; 0 (the default) keeps the legacy latency-only \
     conflict model."
  in
  Arg.(value & opt int 0 & info [ "smem-banks" ] ~docv:"N" ~doc)

(* The two host-side sharding knobs. Unlike the fidelity knobs they are
   timing-invisible: runs are bit-identical at every domain count
   (test_shard), so neither appears in the metrics machine_config echo. *)
let sm_domains_arg =
  let doc =
    "Shard each simulation's SM array across $(docv) worker domains, \
     advancing in lockstep epochs with DRAM traffic replayed in canonical \
     serial order at every barrier. Results are bit-identical for every \
     value; 1 (the default) runs one shard on the calling domain, 0 \
     auto-sizes to the available cores. Under a $(b,-j) pool the per-run \
     domains are divided down so pool x sharding never oversubscribes the \
     machine."
  in
  Arg.(value & opt int 1 & info [ "sm-domains" ] ~docv:"N" ~doc)

let epoch_slack_arg =
  let doc =
    "Epoch length (cycles between shard barriers) for $(b,--sm-domains). 0 \
     (the default) auto-sizes to the soundness bound l1_lat + dram_lat; \
     explicit values are clamped to that bound. Timing-invisible."
  in
  Arg.(value & opt int 0 & info [ "epoch-slack" ] ~docv:"CYCLES" ~doc)

let knobs_term =
  Term.(
    const (fun issue_width mshrs smem_banks sm_domains epoch_slack ->
        (issue_width, mshrs, smem_banks, sm_domains, epoch_slack))
    $ issue_width_arg $ mshrs_arg $ smem_banks_arg $ sm_domains_arg
    $ epoch_slack_arg)

let cfg_of ?(base = Darsie_timing.Config.default) no_ff
    (issue_width, mshrs, smem_banks, sm_domains, epoch_slack) =
  if issue_width < 1 then or_die (Error "--issue-width must be >= 1");
  if mshrs < 0 then or_die (Error "--mshrs must be >= 0");
  if smem_banks < 0 then or_die (Error "--smem-banks must be >= 0");
  if sm_domains < 0 then or_die (Error "--sm-domains must be >= 0");
  if epoch_slack < 0 then or_die (Error "--epoch-slack must be >= 0");
  {
    base with
    Darsie_timing.Config.fast_forward = not no_ff;
    issue_width;
    mshrs;
    smem_banks;
    sm_domains;
    epoch_slack;
  }

let report_cache = function
  | Some c -> Printf.printf "%s\n" (Darsie_trace.Cache.summary c)
  | None -> ()

(* Simulation invariant violations accumulate here; [finish ()] is every
   run-producing subcommand's last statement. *)
let violations : string list ref = ref []

let violation fmt =
  Printf.ksprintf (fun msg -> violations := msg :: !violations) fmt

let finish () =
  match List.rev !violations with
  | [] -> ()
  | vs ->
    List.iter (fun v -> Printf.eprintf "invariant violation: %s\n" v) vs;
    exit 2

(* An unwritable output path is an input error: exit 1 with one line. *)
let write_out path write =
  try write path
  with Sys_error e ->
    (* open_out's message already starts with the path *)
    let e = if String.starts_with ~prefix:path e then e else path ^ ": " ^ e in
    or_die (Error ("darsie: cannot write " ^ e))

(* Every JSON document the CLI builds goes through here: validated (a
   broken identity is an invariant violation, exit 2 at [finish]), then
   written when a path was given. *)
let emit label file doc =
  (match Darsie_harness.Metrics.validate doc with
  | Ok () -> ()
  | Error msg -> violation "exported %s invalid (%s)" label msg);
  Option.iter
    (fun path ->
      write_out path (fun p -> Darsie_harness.Metrics.write_file p doc);
      Printf.printf "%s: %s\n" label path)
    file

let telemetry_arg =
  let doc =
    "Record host-side telemetry (phase spans, domain-pool and trace-cache \
     counters) and write it to $(docv): a Chrome trace_event document \
     (loadable in Perfetto, one track per domain) that also carries the \
     versioned host_telemetry summary section; render it with $(b,darsie \
     telemetry-summary)."
  in
  Arg.(value & opt (some string) None & info [ "telemetry" ] ~docv:"FILE" ~doc)

let progress_arg =
  let doc =
    "Emit rate-limited progress heartbeats on stderr: suite item k/n with \
     ETA, simulation cycles/sec, pool straggler warnings."
  in
  Arg.(value & flag & info [ "progress" ] ~doc)

let progress_json_arg =
  let doc =
    "Like $(b,--progress) but machine-readable: one NDJSON object per line \
     on stderr."
  in
  Arg.(value & flag & info [ "progress-json" ] ~doc)

(* Every telemetry-capable subcommand calls this first. It configures the
   progress channel, enables span recording when a file was requested,
   and returns the finalizer that snapshots and emits the document —
   called right before [finish ()] so an invalid export still reaches
   disk but trips exit 2. *)
let setup_telemetry telemetry_file progress progress_json =
  if progress_json then Tel.Progress.configure Tel.Progress.Ndjson
  else if progress then Tel.Progress.configure Tel.Progress.Human;
  match telemetry_file with
  | None -> fun () -> ()
  | Some path ->
    Tel.enable ();
    fun () ->
      emit "telemetry" (Some path) (Host_trace.document (Tel.snapshot ()))

let check_run abbr (r : Darsie_harness.Suite.run) =
  (match Darsie_timing.Gpu.check_attribution r.Darsie_harness.Suite.gpu with
  | Ok () -> ()
  | Error msg -> violation "%s: %s" abbr msg);
  match Darsie_timing.Gpu.check_ledger r.Darsie_harness.Suite.gpu with
  | Ok () -> ()
  | Error msg -> violation "%s: %s" abbr msg

(* ------------------------------------------------------------------ *)

let list_cmd =
  let run () = print_string (Darsie_harness.Figures.table1 ()) in
  Cmd.v (Cmd.info "list" ~doc:"List the Table-1 applications")
    Term.(const run $ const ())

let asm_cmd =
  let run abbr =
    let w = or_die (find_app abbr) in
    let p = w.W.prepare ~scale:1 in
    print_string
      (Darsie_isa.Printer.kernel_to_string p.W.launch.Darsie_isa.Kernel.kernel)
  in
  Cmd.v (Cmd.info "asm" ~doc:"Print a workload kernel's PTX-lite assembly")
    Term.(const run $ app_arg)

let analyze_cmd =
  let run abbr =
    let w = or_die (find_app abbr) in
    let p = w.W.prepare ~scale:1 in
    let launch = p.W.launch in
    let analysis =
      Darsie_compiler.Analysis.analyze launch.Darsie_isa.Kernel.kernel
    in
    Format.printf "%a" Darsie_compiler.Analysis.pp_markings analysis;
    let promo = Darsie_compiler.Promotion.resolve analysis launch ~warp_size:32 in
    Format.printf
      "\nlaunch-time promotion: %s (x-dim condition %s)\n\
       static TB-redundant instructions: %d\n"
      (if promo.Darsie_compiler.Promotion.promoted then "CR -> DR"
       else "CR -> vector")
      (if promo.Darsie_compiler.Promotion.promoted then "holds" else "fails")
      (Darsie_compiler.Promotion.skip_count_upper_bound promo)
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:"Show the compiler's DR/CR/V markings (Figure 6 style)")
    Term.(const run $ app_arg)

let json_arg =
  let doc = "Write the metrics document (JSON, versioned schema) to $(docv)." in
  Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)

let run_cmd =
  let run abbr machine scale json_file jobs cache_dir no_ff knobs
      telemetry_file progress progress_json =
    let write_telemetry = setup_telemetry telemetry_file progress progress_json in
    let w = or_die (find_app abbr) in
    let cfg = cfg_of no_ff knobs in
    let cache = cache_of cache_dir in
    Printf.printf "preparing %s (scale %d)...\n%!" w.W.abbr scale;
    let app = Darsie_harness.Suite.load_app ~scale ?cache w in
    (* functional verification on a fresh copy *)
    let fresh = w.W.prepare ~scale in
    (match
       Darsie_emu.Interp.run fresh.W.mem fresh.W.launch |> fun _ ->
       fresh.W.verify fresh.W.mem
     with
    | Ok () -> Printf.printf "functional check: OK\n"
    | Error e ->
      Printf.printf "functional check: FAILED (%s)\n" e;
      violation "%s: functional check failed (%s)" abbr e);
    (* two sims fan out here, so the core budget divides by that pool
       size, not by the full -j default *)
    let pool = min (effective_jobs jobs) 2 in
    let cfg = Darsie_harness.Suite.divide_domains ~jobs:pool cfg in
    let base, r =
      match
        Darsie_harness.Parallel.map ~jobs:pool
          ~label:Darsie_harness.Suite.machine_name
          (Darsie_harness.Suite.run_app ~cfg app)
          [ Darsie_harness.Suite.Base; machine ]
      with
      | [ base; r ] -> (base, r)
      | _ -> assert false
    in
    let open Darsie_timing in
    Printf.printf "machine: %s\n" (Darsie_harness.Suite.machine_name machine);
    Printf.printf "cycles: %d (baseline %d, speedup %.2f)\n"
      r.Darsie_harness.Suite.gpu.Gpu.cycles
      base.Darsie_harness.Suite.gpu.Gpu.cycles
      (float_of_int base.Darsie_harness.Suite.gpu.Gpu.cycles
      /. float_of_int r.Darsie_harness.Suite.gpu.Gpu.cycles);
    Printf.printf "stats: %s\n"
      (Format.asprintf "%a" Stats.pp r.Darsie_harness.Suite.gpu.Gpu.stats);
    Printf.printf "energy: %s\n"
      (Format.asprintf "%a" Darsie_energy.Energy_model.pp
         r.Darsie_harness.Suite.energy);
    check_run abbr base;
    check_run abbr r;
    emit "metrics" json_file (Darsie_harness.Metrics.of_run ~app:abbr ~scale r);
    report_cache cache;
    write_telemetry ();
    finish ()
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run one application through the timing model")
    Term.(
      const run $ app_arg $ machine_arg $ scale_arg $ json_arg $ jobs_arg
      $ cache_arg $ no_ff_arg $ knobs_term $ telemetry_arg $ progress_arg
      $ progress_json_arg)

let profile_cmd =
  let run abbr machine scale json_file trace_file csv_file interval cache_dir
      no_ff knobs telemetry_file progress progress_json =
    let write_telemetry = setup_telemetry telemetry_file progress progress_json in
    let w = or_die (find_app abbr) in
    if interval < 1 then or_die (Error "--interval must be >= 1");
    let cfg = cfg_of no_ff knobs in
    let cache = cache_of cache_dir in
    Printf.printf "preparing %s (scale %d)...\n%!" w.W.abbr scale;
    let app = Darsie_harness.Suite.load_app ~scale ?cache w in
    (* Record events only when someone will read them: the Chrome trace
       is the only consumer, and recording costs memory. *)
    let recorder =
      match trace_file with
      | Some _ -> Some (Obs.Recorder.create ())
      | None -> None
    in
    let sink =
      match recorder with
      | Some r -> Obs.Recorder.sink r
      | None -> Obs.Sink.null
    in
    let r =
      Darsie_harness.Suite.run_app ~cfg ~sink ~sample_interval:interval app
        machine
    in
    let open Darsie_timing in
    let gpu = r.Darsie_harness.Suite.gpu in
    Printf.printf "machine: %s\n" (Darsie_harness.Suite.machine_name machine);
    Printf.printf "cycles: %d  ipc: %.3f  tbs/SM: %d\n" gpu.Gpu.cycles
      (Gpu.ipc gpu) gpu.Gpu.tbs_per_sm;
    Printf.printf "sampling interval: %d cycles (%d points/SM)\n" interval
      (if Array.length gpu.Gpu.series = 0 then 0
       else Obs.Series.num_points gpu.Gpu.series.(0));
    Printf.printf "\nstall-cycle attribution (all SMs, %d cycles each):\n%s\n"
      gpu.Gpu.cycles
      (Format.asprintf "%a" Obs.Attrib.pp gpu.Gpu.attribution);
    check_run abbr r;
    emit "metrics" json_file (Darsie_harness.Metrics.of_run ~app:abbr ~scale r);
    (match trace_file with
    | Some path ->
      (* When host telemetry is on, its span tracks (own pid, so no
         collision with the per-SM processes) ride along in the same
         trace file. *)
      let extra =
        if Tel.enabled () then Host_trace.chrome_events (Tel.snapshot ())
        else []
      in
      let trace =
        Obs.Export.chrome_trace ?recorder ~series:gpu.Gpu.series ~extra
          ~name:
            (Printf.sprintf "%s/%s" abbr
               (Darsie_harness.Suite.machine_name machine))
          ()
      in
      write_out path (fun p ->
          Out_channel.with_open_bin p (fun oc ->
              output_string oc (Obs.Json.to_string trace);
              output_char oc '\n'));
      (match recorder with
      | Some rec_ when Obs.Recorder.dropped rec_ > 0 ->
        Printf.printf
          "chrome trace: %s (recorder dropped %d events past its cap)\n" path
          (Obs.Recorder.dropped rec_)
      | _ -> Printf.printf "chrome trace: %s\n" path)
    | None -> ());
    (match csv_file with
    | Some path ->
      write_out path (fun p ->
          Out_channel.with_open_bin p (fun oc ->
              output_string oc (Obs.Export.csv_of_series gpu.Gpu.series)));
      Printf.printf "csv series: %s\n" path
    | None -> ());
    report_cache cache;
    write_telemetry ();
    finish ()
  in
  let trace_arg =
    let doc =
      "Write a Chrome trace_event file to $(docv) (open in chrome://tracing \
       or https://ui.perfetto.dev)."
    in
    Arg.(
      value & opt (some string) None & info [ "chrome-trace" ] ~docv:"FILE" ~doc)
  in
  let csv_arg =
    let doc = "Write the per-SM sampled counter time-series as CSV to $(docv)." in
    Arg.(value & opt (some string) None & info [ "csv" ] ~docv:"FILE" ~doc)
  in
  let interval_arg =
    let doc = "Counter sampling interval in cycles." in
    Arg.(value & opt int 512 & info [ "interval" ] ~docv:"N" ~doc)
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Instrumented timing run: stall-cycle attribution, sampled counter \
          time-series, JSON metrics and Chrome-trace export")
    Term.(
      const run $ app_arg $ machine_arg $ scale_arg $ json_arg $ trace_arg
      $ csv_arg $ interval_arg $ cache_arg $ no_ff_arg $ knobs_term
      $ telemetry_arg $ progress_arg $ progress_json_arg)

let limit_cmd =
  let run abbr scale =
    let w = or_die (find_app abbr) in
    let p = w.W.prepare ~scale in
    let r = Darsie_trace.Limit_study.measure p.W.mem p.W.launch in
    let open Darsie_trace.Limit_study in
    let pct n = 100.0 *. fraction n r in
    Printf.printf
      "%s: %d dynamic warp instructions\n\
       grid-redundant: %5.1f%%\n\
       TB-redundant:   %5.1f%%  (uniform %.1f%% / affine %.1f%% / \
       unstructured %.1f%%)\n\
       warp-redundant: %5.1f%%\n"
      w.W.abbr r.total (pct r.grid_red) (pct r.tb_red) (pct r.tb_uniform)
      (pct r.tb_affine) (pct r.tb_unstructured) (pct r.warp_red)
  in
  Cmd.v
    (Cmd.info "limit" ~doc:"Redundancy limit study (Figures 1 and 2)")
    Term.(const run $ app_arg $ scale_arg)

let experiment_cmd =
  let run id scale jobs cache_dir no_ff knobs json_file =
    let module F = Darsie_harness.Figures in
    if json_file <> None && String.lowercase_ascii id <> "sensitivity" then
      or_die
        (Error
           (Printf.sprintf "--json: experiment %s writes no document" id));
    let matrix =
      lazy
        (let jobs = effective_jobs jobs in
         Printf.printf
           "building evaluation matrix (13 apps x 7 machines, scale %d, %d \
            job(s))...\n\
            %!"
           scale jobs;
         let cache = cache_of cache_dir in
         let m =
           Darsie_harness.Suite.build_matrix ~cfg:(cfg_of no_ff knobs) ~scale
             ~jobs ?cache ()
         in
         Hashtbl.iter (fun (abbr, _) r -> check_run abbr r)
           m.Darsie_harness.Suite.runs;
         report_cache cache;
         m)
    in
    match String.lowercase_ascii id with
    | "fig1" ->
      let _, _, text = F.fig1 () in
      print_string text
    | "fig2" ->
      let _, text = F.fig2 () in
      print_string text
    | "fig6" -> print_string (F.fig6 ())
    | "fig8" ->
      let _, _, _, text = F.fig8 (Lazy.force matrix) in
      print_string text
    | "fig9" ->
      let _, text = F.fig9 (Lazy.force matrix) in
      print_string text
    | "fig10" ->
      let _, text = F.fig10 (Lazy.force matrix) in
      print_string text
    | "fig11" ->
      let _, _, _, text = F.fig11 (Lazy.force matrix) in
      print_string text
    | "fig12" ->
      let _, _, text = F.fig12 (Lazy.force matrix) in
      print_string text
    | "coverage" ->
      let _, _, text = F.coverage (Lazy.force matrix) in
      print_string text
    | "table1" -> print_string (F.table1 ())
    | "table2" -> print_string (F.table2 ())
    | "table3" -> print_string (F.table3 ())
    | "area" ->
      let _, text = F.area () in
      print_string text
    | "ablations" ->
      List.iter
        (fun sweep -> print_endline (Darsie_harness.Ablations.render sweep))
        (Darsie_harness.Ablations.run_default ());
      let apps =
        List.map Darsie_harness.Suite.load_app
          [ Darsie_workloads.Matmul.workload;
            Darsie_workloads.Libor.workload;
            Darsie_workloads.Hotspot.workload ]
      in
      print_string
        (Darsie_harness.Ablations.render_schedulers
           (Darsie_harness.Ablations.scheduler_comparison apps))
    | "sensitivity" ->
      let module Sens = Darsie_harness.Sensitivity in
      let jobs = effective_jobs jobs in
      Printf.printf
        "sensitivity sweep (13 apps x 2 machines x {1,2} issue-width x \
         {1,64} mshrs, 32 banks, %d job(s))...\n%!"
        jobs;
      let cache = cache_of cache_dir in
      let t = Sens.run ~cfg:(cfg_of no_ff knobs) ~jobs ?cache
          ~check:check_run ()
      in
      print_string (Sens.render t);
      report_cache cache;
      emit "sweep" json_file (Sens.to_json t)
    | other ->
      Printf.eprintf
        "unknown experiment %S (fig1 fig2 fig6 fig8 fig9 fig10 fig11 fig12 \
         coverage table1 table2 table3 area ablations sensitivity)\n"
        other;
      exit 1
  in
  let run id scale jobs cache_dir no_ff knobs json_file telemetry_file
      progress progress_json =
    let write_telemetry = setup_telemetry telemetry_file progress progress_json in
    run id scale jobs cache_dir no_ff knobs json_file;
    write_telemetry ();
    finish ()
  in
  let id_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"ID"
           ~doc:"Experiment id, e.g. fig8, table1 or sensitivity.")
  in
  Cmd.v
    (Cmd.info "experiment" ~doc:"Regenerate a paper figure or table")
    Term.(const run $ id_arg $ scale_arg $ jobs_arg $ cache_arg $ no_ff_arg
          $ knobs_term $ json_arg $ telemetry_arg $ progress_arg
          $ progress_json_arg)

let check_cmd =
  let module Checker = Darsie_harness.Checker in
  let module Sim_error = Darsie_check.Sim_error in
  let run app_opt machines scale no_oracle inject seed deadline max_cycles
      watchdog json_file jobs cache_dir no_ff knobs telemetry_file progress
      progress_json =
    let write_telemetry = setup_telemetry telemetry_file progress progress_json in
    let apps =
      match app_opt with
      | Some abbr -> [ or_die (find_app abbr) ]
      | None -> Darsie_workloads.Registry.all
    in
    let machines = if machines = [] then Checker.default_machines else machines in
    let jobs = effective_jobs jobs in
    let cache = cache_of cache_dir in
    let cfg =
      {
        (cfg_of no_ff knobs) with
        Darsie_timing.Config.max_cycles;
        watchdog_cycles = watchdog;
      }
    in
    Printf.printf
      "checking %d app(s) on %s (oracle %s, %d fault(s), seed %d, %d job(s))...\n%!"
      (List.length apps)
      (String.concat "+" (List.map Darsie_harness.Suite.machine_name machines))
      (if no_oracle then "off" else "on")
      inject seed jobs;
    let report =
      Checker.check_suite ~cfg ~scale ~machines ~oracle:(not no_oracle) ~inject
        ~seed ?deadline ?cache ~jobs ~apps ()
    in
    print_string (Checker.render report);
    report_cache cache;
    emit "report" json_file (Checker.to_json report);
    write_telemetry ();
    finish ();
    (* each failure class gets its own exit code so scripts and CI can
       tell a deadlock from an oracle mismatch *)
    match Checker.worst_error report with
    | None -> ()
    | Some e ->
      Printf.eprintf "%s\n" (Sim_error.summary e);
      exit (Sim_error.exit_code e)
  in
  let app_opt_arg =
    let doc = "Application to check; omit to check the whole suite." in
    Arg.(value & pos 0 (some string) None & info [] ~docv:"APP" ~doc)
  in
  let machines_arg =
    let doc = "Machine configuration(s) to run (repeatable; default BASE and \
               DARSIE)." in
    Arg.(value & opt_all machine_conv [] & info [ "machine"; "m" ]
           ~docv:"MACHINE" ~doc)
  in
  let no_oracle_arg =
    let doc = "Skip the differential oracle (functional + timing only)." in
    Arg.(value & flag & info [ "no-oracle" ] ~doc)
  in
  let inject_arg =
    let doc = "Inject $(docv) seeded faults per app; every one must be \
               detected by the oracle." in
    Arg.(value & opt int 0 & info [ "inject" ] ~docv:"N" ~doc)
  in
  let seed_arg =
    let doc = "PRNG seed for the fault plan (same seed, same faults)." in
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc)
  in
  let deadline_arg =
    let doc = "Wall-clock seconds budget per timing run (wall timeout)." in
    Arg.(value & opt (some float) None & info [ "deadline" ] ~docv:"SECS" ~doc)
  in
  let max_cycles_arg =
    let doc = "Cycle budget per timing run." in
    Arg.(value
         & opt int Darsie_timing.Config.default.Darsie_timing.Config.max_cycles
         & info [ "max-cycles" ] ~docv:"N" ~doc)
  in
  let watchdog_arg =
    let doc = "Deadlock watchdog window in cycles (0 disables)." in
    Arg.(value
         & opt int
             Darsie_timing.Config.default.Darsie_timing.Config.watchdog_cycles
         & info [ "watchdog" ] ~docv:"N" ~doc)
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Robustness checks: functional verify, budgeted timing runs, \
          differential oracle and fault injection, crash-isolated per app")
    Term.(const run $ app_opt_arg $ machines_arg $ scale_arg $ no_oracle_arg
          $ inject_arg $ seed_arg $ deadline_arg $ max_cycles_arg
          $ watchdog_arg $ json_arg $ jobs_arg $ cache_arg $ no_ff_arg
          $ knobs_term $ telemetry_arg $ progress_arg $ progress_json_arg)

let annotate_cmd =
  let run abbr machines scale top json_file jobs cache_dir no_ff knobs
      telemetry_file progress progress_json =
    let write_telemetry = setup_telemetry telemetry_file progress progress_json in
    let w = or_die (find_app abbr) in
    let cfg = cfg_of no_ff knobs in
    let machines =
      if machines = [] then [ Darsie_harness.Suite.Darsie ] else machines
    in
    let cache = cache_of cache_dir in
    Printf.printf "preparing %s (scale %d)...\n%!" w.W.abbr scale;
    let app = Darsie_harness.Suite.load_app ~scale ?cache w in
    let pool = min (effective_jobs jobs) (List.length machines) in
    let cfg = Darsie_harness.Suite.divide_domains ~jobs:pool cfg in
    let runs =
      Darsie_harness.Parallel.map ~jobs:pool
        ~label:Darsie_harness.Suite.machine_name
        (fun m ->
          let r = Darsie_harness.Suite.run_app ~cfg ~pcstat:true app m in
          (Darsie_harness.Suite.machine_name m, r))
        machines
    in
    (* the pcstat-aware attribution check: per-PC stall charges must
       reproduce each SM's bucket totals *)
    List.iter (fun (_, r) -> check_run abbr r) runs;
    let results =
      List.map (fun (n, r) -> (n, r.Darsie_harness.Suite.gpu)) runs
    in
    let kernel = app.Darsie_harness.Suite.kinfo.Darsie_timing.Kinfo.kernel in
    print_string
      (Darsie_harness.Annotate.render ~top ~kernel ~app_name:abbr
         ~machines:results ());
    emit "metrics" json_file
      (Darsie_harness.Metrics.of_run ~app:abbr ~scale (snd (List.hd runs)));
    report_cache cache;
    write_telemetry ();
    finish ()
  in
  let machines_arg =
    let doc =
      "Machine(s) to profile (repeatable; first is the primary for cycle% \
       and stall columns, every one adds a skip% column; default DARSIE)."
    in
    Arg.(
      value & opt_all machine_conv [] & info [ "machine"; "m" ]
        ~docv:"MACHINE" ~doc)
  in
  let top_arg =
    let doc = "Show the $(docv) hottest instructions after the listing \
               (0 disables)." in
    Arg.(value & opt int 5 & info [ "top" ] ~docv:"N" ~doc)
  in
  Cmd.v
    (Cmd.info "annotate"
       ~doc:
         "Per-instruction hotspot profile: annotated disassembly with \
          cycle%, skip% and stall-bucket columns (perf annotate for \
          PTX-lite)")
    Term.(
      const run $ app_arg $ machines_arg $ scale_arg $ top_arg $ json_arg
      $ jobs_arg $ cache_arg $ no_ff_arg $ knobs_term $ telemetry_arg
      $ progress_arg $ progress_json_arg)

let explain_cmd =
  let run abbr machine scale top json_file cache_dir no_ff knobs
      telemetry_file progress progress_json =
    let write_telemetry = setup_telemetry telemetry_file progress progress_json in
    let w = or_die (find_app abbr) in
    let cfg = cfg_of no_ff knobs in
    let cache = cache_of cache_dir in
    Printf.printf "preparing %s (scale %d)...\n%!" w.W.abbr scale;
    let app = Darsie_harness.Suite.load_app ~scale ?cache w in
    let r = Darsie_harness.Suite.run_app ~cfg app machine in
    (* the ledger conservation check: eligible occurrences = Σ fates per
       PC, per SM and in the aggregate — exit 2 if the accounting leaks *)
    check_run abbr r;
    let gpu = r.Darsie_harness.Suite.gpu in
    print_string
      (Darsie_harness.Explain.render ~top ~app_name:abbr
         ~machine_name:(Darsie_harness.Suite.machine_name machine)
         ~kinfo:app.Darsie_harness.Suite.kinfo
         gpu.Darsie_timing.Gpu.ledger ());
    emit "metrics" json_file (Darsie_harness.Metrics.of_run ~app:abbr ~scale r);
    report_cache cache;
    write_telemetry ();
    finish ()
  in
  let top_arg =
    let doc =
      "Show the $(docv) instructions with the most eligible occurrences \
       after the listing, each with its full fate breakdown, launch-time \
       promotion verdict and operand provenance story (0 disables)."
    in
    Arg.(value & opt int 5 & info [ "top" ] ~docv:"N" ~doc)
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Explain the fate of every statically redundant instruction: the \
          runtime skip ledger (skipped, parked, blocked, evicted, flushed, \
          demoted ... per dynamic occurrence) joined with the compiler's \
          static story on an annotated listing; exits nonzero if the \
          ledger's conservation invariant is violated")
    Term.(
      const run $ app_arg $ machine_arg $ scale_arg $ top_arg $ json_arg
      $ cache_arg $ no_ff_arg $ knobs_term $ telemetry_arg $ progress_arg
      $ progress_json_arg)

let bench_compare_cmd =
  let module T = Darsie_harness.Trendline in
  let run baseline current det_tol wall_tol warn_only =
    let load path =
      match T.read_file path with
      | Ok r -> r
      | Error e -> or_die (Error (Printf.sprintf "%s: %s" path e))
    in
    let b = load baseline in
    let c = load current in
    Printf.printf "baseline: %s (%s, %s)\ncurrent:  %s (%s, %s)\n\n" baseline
      b.T.date b.T.label current c.T.date c.T.label;
    let verdicts =
      T.compare_records ~det_threshold:det_tol ~wall_threshold:wall_tol
        ~baseline:b ~current:c ()
    in
    print_string (T.render_verdicts verdicts);
    match T.regressions verdicts with
    | [] -> print_endline "\nbench-compare: no regressions."
    | rs ->
      Printf.printf "\nbench-compare: %d metric(s) regressed.\n"
        (List.length rs);
      if not warn_only then exit 1
  in
  let baseline_arg =
    Arg.(
      required & pos 0 (some string) None
      & info [] ~docv:"BASELINE"
          ~doc:"Baseline bench record (JSON written by bench --trend).")
  in
  let current_arg =
    Arg.(
      required & pos 1 (some string) None
      & info [] ~docv:"CURRENT" ~doc:"Bench record to judge.")
  in
  let det_arg =
    let doc = "Relative threshold for deterministic metrics (cycles, IPC, \
               speedup geomeans)." in
    Arg.(value & opt float T.det_threshold
         & info [ "det-threshold" ] ~docv:"FRAC" ~doc)
  in
  let wall_arg =
    let doc = "Relative threshold for wall-clock metrics." in
    Arg.(value & opt float T.wall_threshold
         & info [ "wall-threshold" ] ~docv:"FRAC" ~doc)
  in
  let warn_arg =
    let doc = "Report regressions but exit zero (CI smoke mode)." in
    Arg.(value & flag & info [ "warn-only" ] ~doc)
  in
  Cmd.v
    (Cmd.info "bench-compare"
       ~doc:
         "Diff two bench trajectory records with min-of-N + \
          relative-threshold gating; exits nonzero on regression")
    Term.(const run $ baseline_arg $ current_arg $ det_arg $ wall_arg
          $ warn_arg)

(* Read and parse a JSON file; the error is one line naming the file. *)
let read_json file =
  match In_channel.with_open_bin file In_channel.input_all with
  | exception Sys_error e -> Error e
  | s ->
    Result.map_error (Printf.sprintf "%s: bad JSON (%s)" file)
      (Obs.Json.of_string s)

let telemetry_summary_cmd =
  let run file =
    let text =
      Result.bind (read_json file) (fun doc ->
          match Host_trace.summary_of_document doc with
          | None ->
            Error (Printf.sprintf "%s carries no host_telemetry section" file)
          | Some section -> (
            match Darsie_harness.Metrics.validate doc with
            | Error e ->
              Error (Printf.sprintf "%s: invalid host_telemetry (%s)" file e)
            | Ok () -> Host_trace.render_summary section))
    in
    print_string (or_die text)
  in
  let file_arg =
    Arg.(
      required & pos 0 (some string) None
      & info [] ~docv:"FILE"
          ~doc:"Telemetry document written by --telemetry (or a bare \
                host_telemetry section).")
  in
  Cmd.v
    (Cmd.info "telemetry-summary"
       ~doc:
         "Render a --telemetry document as a table: phases ranked by self \
          wall time, per-domain utilization, counter totals; validates the \
          self-time accounting first and exits nonzero if it does not \
          hold")
    Term.(const run $ file_arg)

let validate_cmd =
  let module M = Darsie_harness.Metrics in
  let check file =
    match read_json file with
    | Error e -> (1, e)
    | Ok doc -> (
      match (M.kind_of doc, M.validate doc) with
      | Error e, _ -> (1, Printf.sprintf "%s: %s" file e)
      | Ok kind, Ok () -> (0, Printf.sprintf "%s: ok (%s)" file kind)
      | Ok kind, Error e -> (2, Printf.sprintf "%s: %s: %s" file kind e))
  in
  let run files =
    let worst code file =
      let c, line = check file in
      if c = 0 then print_endline line else prerr_endline line;
      max code c
    in
    exit (List.fold_left worst 0 files)
  in
  let files_arg =
    Arg.(non_empty & pos_all string [] & info [] ~docv:"FILE"
           ~doc:"JSON document written by darsie or bench.")
  in
  Cmd.v
    (Cmd.info "validate"
       ~doc:
         "Detect each file's document kind (metrics, check report, fuzz \
          campaign, sensitivity sweep, host telemetry, bench record) and \
          re-prove its identities; exits 2 if one does not hold, else 1 if \
          a file is unreadable, not JSON or of no known kind")
    Term.(const run $ files_arg)

let area_cmd =
  let run () =
    let _, text = Darsie_harness.Figures.area () in
    print_string text
  in
  Cmd.v (Cmd.info "area" ~doc:"DARSIE area estimate (Section 6.3)")
    Term.(const run $ const ())

let fuzz_cmd =
  let module Campaign = Darsie_fuzz.Campaign in
  let run seed count jobs max_shrink corpus inject json_file replay
      replay_corpus knobs telemetry_file progress progress_json =
    let write_telemetry = setup_telemetry telemetry_file progress progress_json in
    (* The differential stack runs fast-forward both on and off itself,
       so only the fidelity knobs matter here. *)
    let base_cfg = cfg_of false knobs in
    match (replay, replay_corpus) with
    | Some spec, _ ->
      (* --replay SEED:INDEX re-runs exactly one generated kernel *)
      let rseed, rindex =
        match String.split_on_char ':' spec with
        | [ s; i ] -> (
          match (int_of_string_opt s, int_of_string_opt i) with
          | Some s, Some i -> (s, i)
          | _ -> or_die (Error (Printf.sprintf "bad --replay spec %S" spec)))
        | _ ->
          or_die
            (Error
               (Printf.sprintf "bad --replay spec %S (expected SEED:INDEX)"
                  spec))
      in
      let text, code = Campaign.replay ~base_cfg ~seed:rseed ~index:rindex () in
      print_string text;
      if code <> 0 then exit code
    | None, Some dir ->
      let text, code = Campaign.replay_corpus ~base_cfg ~dir () in
      print_string text;
      if code <> 0 then exit code
    | None, None ->
      let cfg =
        {
          Campaign.seed;
          count;
          jobs = (if jobs >= 1 then Some jobs else None);
          max_shrink;
          corpus_dir = corpus;
          inject;
          base_cfg;
        }
      in
      let report = Campaign.run cfg in
      print_string (Campaign.render report);
      emit "report" json_file (Campaign.to_json report);
      write_telemetry ();
      finish ();
      let code = Campaign.exit_code report in
      if code <> 0 then exit code
  in
  let seed_arg =
    let doc = "Campaign seed: kernel $(i,i) is generated from the splittable \
               stream for (seed, i), so any kernel replays in isolation." in
    Arg.(value & opt int 0 & info [ "seed" ] ~docv:"N" ~doc)
  in
  let count_arg =
    let doc = "Number of kernels to generate and differentially check." in
    Arg.(value & opt int 100 & info [ "count"; "n" ] ~docv:"N" ~doc)
  in
  let max_shrink_arg =
    let doc = "Shrinker budget: predicate evaluations per counterexample." in
    Arg.(value & opt int 400 & info [ "max-shrink" ] ~docv:"K" ~doc)
  in
  let corpus_arg =
    let doc = "Write shrunk counterexamples to $(docv) (created on demand)." in
    Arg.(value & opt (some string) None & info [ "corpus" ] ~docv:"DIR" ~doc)
  in
  let inject_arg =
    let doc = "Fault-injection mode: for each fault kind, find a generated \
               kernel with an applicable site, require the stacked oracle to \
               detect the injected fault, and shrink that kernel to a \
               minimal witness."
    in
    Arg.(value & flag & info [ "inject" ] ~doc)
  in
  let replay_arg =
    let doc = "Replay one kernel as $(docv) (SEED:INDEX) through the full \
               stack and print its geometry, assembly and verdict."
    in
    Arg.(value & opt (some string) None & info [ "replay" ] ~docv:"SEED:INDEX" ~doc)
  in
  let replay_corpus_arg =
    let doc = "Re-run every checked-in counterexample under $(docv) through \
               the full differential stack (clean entries must pass; \
               injected entries must be detected)."
    in
    Arg.(value & opt (some string) None & info [ "replay-corpus" ] ~docv:"DIR" ~doc)
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Property-based kernel fuzzing: generate seeded PTX-lite kernels \
          biased onto the promotion boundary and the skip-invalidation \
          paths, run each through the stacked differential (oracle, \
          fast-forward bit-identity, attribution/ledger invariants), and \
          shrink any failure to a minimal replayable counterexample")
    Term.(const run $ seed_arg $ count_arg $ jobs_arg $ max_shrink_arg
          $ corpus_arg $ inject_arg $ json_arg $ replay_arg
          $ replay_corpus_arg $ knobs_term $ telemetry_arg $ progress_arg
          $ progress_json_arg)

let main =
  let doc = "DARSIE: dimensionality-aware redundant SIMT instruction elimination" in
  Cmd.group (Cmd.info "darsie" ~version:"1.0.0" ~doc)
    [ list_cmd; asm_cmd; analyze_cmd; run_cmd; profile_cmd; annotate_cmd;
      explain_cmd; limit_cmd; experiment_cmd; check_cmd; fuzz_cmd;
      bench_compare_cmd; telemetry_summary_cmd; validate_cmd; area_cmd ]

(* Typed simulation errors escaping any subcommand (e.g. a deadlock during
   [darsie run]) exit with their distinct code and a one-line summary. *)
let () =
  let module Sim_error = Darsie_check.Sim_error in
  try exit (Cmd.eval main) with
  | Sim_error.Simulation_error e ->
    Printf.eprintf "%s\n" (Sim_error.summary e);
    exit (Sim_error.exit_code e)
  | Darsie_emu.Interp.Error err ->
    let e = Sim_error.of_emu err in
    Printf.eprintf "%s\n" (Sim_error.summary e);
    exit (Sim_error.exit_code e)
  | Darsie_emu.Interp.Fault msg ->
    let e = Sim_error.Memory_fault { message = msg } in
    Printf.eprintf "%s\n" (Sim_error.summary e);
    exit (Sim_error.exit_code e)
