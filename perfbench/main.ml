(* The benchmark program. One process runs one piece of one workload:

     main.exe setup  --workload W --dir D [--trace 1]
     main.exe run    --workload W --dir D --expected F [--trace 1]
     main.exe record --workload W --dir D --expected F

   [setup] is the cold set-up a first run pays once, into the fresh
   directory D. [run] is one pass of the timed phase every later run
   pays, against D, judged against the expected outputs F; with
   --trace 1 it is the traced copy of the pass and reports per-layer
   metrics. [record] writes F from one pass. Every mode prints one JSON
   object as its last line. run.py builds this program, starts the
   processes and prints the benchmark's result; README.md defines the
   workloads and metrics. *)

module Tel = Darsie_telemetry.Telemetry
module Suite = Darsie_harness.Suite
module Parallel = Darsie_harness.Parallel
module Figures = Darsie_harness.Figures
module Metrics = Darsie_harness.Metrics
module Stats_util = Darsie_harness.Stats_util
module Gpu = Darsie_timing.Gpu
module Config = Darsie_timing.Config
module Kinfo = Darsie_timing.Kinfo
module Stats = Darsie_timing.Stats
module Cache = Darsie_trace.Cache
module Record = Darsie_trace.Record
module W = Darsie_workloads.Workload
module Registry = Darsie_workloads.Registry
module Campaign = Darsie_fuzz.Campaign
module Gen = Darsie_fuzz.Gen
module Plan = Darsie_fuzz.Plan
module Shrink = Darsie_fuzz.Shrink
module Differential = Darsie_fuzz.Differential
module Oracle = Darsie_check.Oracle
module Sim_error = Darsie_check.Sim_error
module Engine = Darsie_core.Darsie_engine
module Obs = Darsie_obs

(* At most two domains run at once: the pool's two workers (matrix,
   fuzz) or one simulation's two shards (large). *)
let jobs = 2

type opts = {
  mode : string;
  workload : string;
  dir : string;
  expected : string;
  trace : bool;
  fuzz_seed : int;
  fuzz_count : int;
  large_app : string;
  large_scale : int;
}

let now = Unix.gettimeofday

let span = Tel.span

let str s = Tel.Str s

(* ------------------------------------------------------------------ *)
(* Calls into the layers, each inside a span. Spans record only while
   telemetry is enabled, so set-up and untraced passes run them bare. *)

let generate mem launch =
  let sp = Tel.begin_span "perf.trace.generate" in
  let t = Record.generate mem launch in
  Tel.end_span ~args:[ ("ops", Tel.Int (Record.total_ops t)) ] sp;
  t

let find cache ~name ~scale launch =
  let sp = Tel.begin_span "perf.trace.find" in
  let t = Cache.find cache ~key:(Cache.key ~name ~scale launch) in
  let ops = match t with Some t -> Record.total_ops t | None -> 0 in
  Tel.end_span ~args:[ ("ops", Tel.Int ops) ] sp;
  match t with
  | Some t -> t
  | None -> failwith (Printf.sprintf "trace of %s is not in %s" name (Cache.dir cache))

(* [cls] is the engine family and [mode] the loop that runs; the per-layer
   metrics select Gpu.run calls by them. *)
let gpu_run ~cls ~mode f =
  let sp =
    Tel.begin_span ~args:[ ("class", str cls); ("mode", str mode) ]
      "perf.timing.gpu_run"
  in
  let res = f () in
  (match res with
  | Ok (r : Gpu.result) ->
    Tel.end_span
      ~args:
        [
          ("cycles", Tel.Int r.Gpu.cycles);
          ( "warp_insts",
            Tel.Int (r.Gpu.stats.Stats.fetched + r.Gpu.stats.Stats.skipped_prefetch)
          );
        ]
      sp
  | Error _ -> Tel.end_span sp);
  res

let checked (r : Gpu.result) =
  span "perf.obs.check" (fun () ->
      match Gpu.check_attribution r with
      | Error m -> Error m
      | Ok () -> (
        match Gpu.check_ledger r with Error m -> Error m | Ok () -> Ok r))

(* The digest of one simulation: cycles, Stats, stall attribution and the
   skip ledger, aggregate and per SM. *)
let digest_of (r : Gpu.result) =
  let b = Buffer.create 4096 in
  let kv (k, v) = Printf.bprintf b "%s=%d;" k v in
  Printf.bprintf b "cycles=%d;" r.Gpu.cycles;
  List.iter kv (Stats_util.to_assoc r.Gpu.stats);
  Array.iter (fun s -> List.iter kv (Stats_util.to_assoc s)) r.Gpu.per_sm;
  List.iter kv (Obs.Attrib.to_assoc r.Gpu.attribution);
  Array.iter
    (fun a -> List.iter kv (Obs.Attrib.to_assoc a))
    r.Gpu.per_sm_attribution;
  Buffer.add_string b (Obs.Json.to_string (Obs.Ledger.to_json r.Gpu.ledger));
  Printf.sprintf "cycles=%d md5=%s" r.Gpu.cycles
    (Digest.to_hex (Digest.string (Buffer.contents b)))

let outcome op = function
  | Ok r -> { Derive.op; digest = digest_of r; error = None }
  | Error e -> { Derive.op; digest = ""; error = Some e }

(* The major heap in MB; Gc.stat runs a full major collection first, so
   this counts what is live, the loaded traces included. *)
let heap_mb () =
  float_of_int ((Gc.stat ()).Gc.heap_words * (Sys.word_size / 8)) /. 1048576.0

(* Bytes of the trace entries under [dir]; fuzz stores none. *)
let dir_bytes dir =
  if not (Sys.file_exists dir) then 0
  else
    Array.fold_left
      (fun acc f -> acc + (Unix.stat (Filename.concat dir f)).Unix.st_size)
      0 (Sys.readdir dir)

(* One timed pass: its operations' outcomes (computed after the clock
   stops), the simulated cycles it reports, and the Fig. 8 GMEAN-2D
   DARSIE speedup on matrix. *)
type pass = {
  outcomes : Derive.outcome list Lazy.t;
  cycles : int;
  gmean_2d : float option;
  heap_after_load_mb : float;
}

(* ------------------------------------------------------------------ *)
(* matrix: the Table-1 apps x 7 machines at scale 1, as
   `darsie experiment fig8 --cache DIR -j 2` runs them. *)

let matrix_cells =
  List.concat_map
    (fun w -> List.map (fun m -> (w.W.abbr, m)) Suite.all_machines)
    Registry.all

let cell_op (abbr, m) = abbr ^ "/" ^ Suite.machine_name m

let setup_app cache ~scale (w : W.t) =
  span ~args:[ ("app", str w.W.abbr) ] "perf.app" (fun () ->
      let p = span "perf.workloads.prepare" (fun () -> w.W.prepare ~scale) in
      ignore
        (span "perf.compiler.kinfo" (fun () ->
             Kinfo.make ~warp_size:32 p.W.launch));
      let t = generate p.W.mem p.W.launch in
      let key = Cache.key ~name:w.W.abbr ~scale p.W.launch in
      span "perf.trace.store" (fun () -> Cache.store cache ~key t))

let load_app cache ~scale (w : W.t) =
  span ~args:[ ("app", str w.W.abbr) ] "perf.app" (fun () ->
      let p = span "perf.workloads.prepare" (fun () -> w.W.prepare ~scale) in
      let kinfo =
        span "perf.compiler.kinfo" (fun () ->
            Kinfo.make ~warp_size:32 p.W.launch)
      in
      let trace = find cache ~name:w.W.abbr ~scale p.W.launch in
      { Suite.workload = w; trace; kinfo })

let machine_cfg m =
  match m with
  | Suite.Silicon_sync -> { Config.default with Config.sync_at_branches = true }
  | _ -> Config.default

let factory_of = function
  | Suite.Base | Suite.Silicon_sync -> Darsie_timing.Engine.base_factory
  | Suite.Uv -> Darsie_baselines.Uv.factory
  | Suite.Dac_ideal -> Darsie_baselines.Dac_ideal.factory
  | Suite.Darsie -> Engine.factory ()
  | Suite.Darsie_ignore_store ->
    Engine.factory ~options:{ Engine.ignore_store = true; no_cf_sync = false } ()
  | Suite.Darsie_no_cf_sync ->
    Engine.factory ~options:{ Engine.ignore_store = false; no_cf_sync = true } ()

let class_of = function
  | Suite.Base | Suite.Silicon_sync -> "base"
  | Suite.Uv | Suite.Dac_ideal -> "baseline"
  | Suite.Darsie | Suite.Darsie_ignore_store | Suite.Darsie_no_cf_sync ->
    "darsie"

let gmean_2d m =
  let _, _, g2, _ = Figures.fig8 m in
  g2.Figures.darsie

(* A pass of simulations (matrix cells, large runs), each [Ok] when it
   ran and passed its checks. *)
let sims_result ops (m : Suite.matrix option) heap =
  {
    outcomes = lazy (List.map (fun (op, r) -> outcome op r) ops);
    cycles =
      List.fold_left
        (fun acc (_, r) ->
          match r with Ok (g : Gpu.result) -> acc + g.Gpu.cycles | Error _ -> acc)
        0 ops;
    gmean_2d = Option.map gmean_2d m;
    heap_after_load_mb = heap;
  }

(* The program's own path: Suite.build_matrix, the CLI's invariant
   checks on every cell, then the Fig. 8 tables. *)
let matrix_pass cache =
  match Suite.build_matrix ~scale:1 ~jobs ~cache () with
  | exception Sim_error.Simulation_error e ->
    let msg = Sim_error.summary e in
    sims_result (List.map (fun c -> (cell_op c, Error msg)) matrix_cells) None 0.0
  | m ->
    let ops =
      List.map
        (fun ((abbr, machine) as c) ->
          (cell_op c, checked (Suite.get m abbr machine).Suite.gpu))
        matrix_cells
    in
    sims_result ops (Some m) 0.0

(* The traced copy of the same pass: the same pool over the same apps and
   cells, with the benchmark calling each layer itself. *)
let matrix_pass_traced cache =
  let apps =
    Parallel.map ~jobs ~label:(fun w -> w.W.abbr) (load_app cache ~scale:1)
      Registry.all
  in
  let heap = heap_mb () in
  let cells =
    List.concat_map (fun a -> List.map (fun m -> (a, m)) Suite.all_machines) apps
  in
  let runs =
    Parallel.map ~jobs
      ~label:(fun (a, m) -> cell_op (a.Suite.workload.W.abbr, m))
      (fun (app, m) ->
        let abbr = app.Suite.workload.W.abbr in
        span
          ~args:[ ("app", str abbr); ("machine", str (Suite.machine_name m)) ]
          "perf.cell"
          (fun () ->
            let cfg = machine_cfg m in
            let res =
              gpu_run ~cls:(class_of m) ~mode:"serial" (fun () ->
                  Gpu.run ~cfg (factory_of m) app.Suite.kinfo app.Suite.trace)
            in
            let res =
              match res with
              | Ok g -> checked g
              | Error e -> Error (Sim_error.summary e)
            in
            ((abbr, m), cfg, res)))
      cells
  in
  let table = Hashtbl.create 128 in
  List.iter
    (fun (key, cfg, res) ->
      match res with
      | Ok gpu ->
        Hashtbl.replace table key
          {
            Suite.machine = snd key;
            cfg;
            gpu;
            energy = Darsie_energy.Energy_model.account cfg gpu.Gpu.stats;
          }
      | Error _ -> ())
    runs;
  let ops = List.map (fun (key, _, res) -> (cell_op key, res)) runs in
  let m =
    if Hashtbl.length table = List.length runs then
      Some { Suite.cfg = Config.default; apps; runs = table }
    else None
  in
  sims_result ops m heap

(* ------------------------------------------------------------------ *)
(* large: one paper-scale simulation at two shards, run plain and then
   instrumented the way `darsie annotate`/`profile` request it. *)

let large_cfg = { Config.default with Config.sm_domains = 2 }

let sample_interval = 512

let export o abbr (run : Suite.run) =
  span "perf.obs.export" (fun () ->
      let doc = Metrics.of_run ~app:abbr ~scale:o.large_scale run in
      match Metrics.validate doc with
      | Error m -> Error ("exported metrics invalid: " ^ m)
      | Ok () ->
        Metrics.write_file (Filename.concat o.dir "metrics.json") doc;
        Ok run.Suite.gpu)

let large_app o =
  match Registry.find o.large_app with
  | Some w -> w
  | None -> failwith ("unknown app " ^ o.large_app)

let large_pass o cache =
  let w = large_app o in
  let abbr = w.W.abbr in
  let app = Suite.load_app ~scale:o.large_scale ~cache w in
  let plain =
    match Suite.run_app_checked ~cfg:large_cfg app Suite.Darsie with
    | Ok r -> checked r.Suite.gpu
    | Error e -> Error (Sim_error.summary e)
  in
  let instr =
    match
      Suite.run_app_checked ~cfg:large_cfg ~pcstat:true ~sample_interval app
        Suite.Darsie
    with
    | Error e -> Error (Sim_error.summary e)
    | Ok r -> Result.bind (checked r.Suite.gpu) (fun _ -> export o abbr r)
  in
  sims_result [ ("plain", plain); ("instrumented", instr) ] None 0.0

let large_pass_traced o cache =
  let w = large_app o in
  let abbr = w.W.abbr in
  let app = load_app cache ~scale:o.large_scale w in
  let heap = heap_mb () in
  let sim op mode ?pcstat ?sample_interval () =
    span ~args:[ ("app", str abbr); ("op", str op) ] "perf.sim" (fun () ->
        let res =
          gpu_run ~cls:"darsie" ~mode (fun () ->
              Gpu.run ~cfg:large_cfg ?pcstat ?sample_interval (Engine.factory ())
                app.Suite.kinfo app.Suite.trace)
        in
        match res with
        | Error e -> Error (Sim_error.summary e)
        | Ok g -> (
          match checked g with
          | Error m -> Error m
          | Ok g when pcstat = None -> Ok g
          | Ok gpu ->
            export o abbr
              {
                Suite.machine = Suite.Darsie;
                cfg = large_cfg;
                gpu;
                energy = Darsie_energy.Energy_model.account large_cfg gpu.Gpu.stats;
              }))
  in
  let plain = sim "plain" "sharded" () in
  let instr = sim "instrumented" "profiled" ~pcstat:true ~sample_interval () in
  sims_result [ ("plain", plain); ("instrumented", instr) ] None heap

(* ------------------------------------------------------------------ *)
(* fuzz: `darsie fuzz --seed N --count K -j 2` with the default shrink
   budget. *)

let max_shrink = 400

let one_line s = String.map (function '\n' | '\t' -> ' ' | c -> c) s

type kernel = {
  k_style : string;
  k_promoted : bool;
  k_clean : bool;
  k_forwards : int;
  k_warp_insts : int;
  k_cycles : int;
  k_skips : int;
  k_fail : (string * string * int * int * int) option;
      (* kind, detail, items before, items after, evals *)
}

(* What the campaign report holds: aggregates plus one record per failing
   kernel. Both the program's path and the traced copy reduce to it. *)
type fuzz_summary = {
  kernels : int;
  passed : int;
  promoted : int;
  warp_insts : int;
  forwards : int;
  skips : int;
  sim_cycles : int;
  styles : (string * int) list;
  fails : (int * string * (string * string * int * int * int)) list;
      (* index, style, (kind, detail, items before, items after, evals) *)
}

let fuzz_outcomes s =
  {
    Derive.op = "totals";
    digest =
      Printf.sprintf
        "kernels=%d passed=%d promoted=%d warp_insts=%d forwards=%d skips=%d \
         cycles=%d"
        s.kernels s.passed s.promoted s.warp_insts s.forwards s.skips
        s.sim_cycles;
    error = None;
  }
  :: {
       Derive.op = "styles";
       digest =
         String.concat " "
           (List.map (fun (st, n) -> Printf.sprintf "%s=%d" st n) s.styles);
       error = None;
     }
  :: List.map
       (fun (i, style, (kind, detail, before, after, evals)) ->
         {
           Derive.op = Printf.sprintf "kernel %d" i;
           digest =
             Printf.sprintf "%s %s: %s | shrunk %d -> %d items, %d evals" style
               kind (one_line detail) before after evals;
           error = None;
         })
       s.fails

let fuzz_result s =
  {
    outcomes = lazy (fuzz_outcomes s);
    cycles = s.sim_cycles;
    gmean_2d = None;
    heap_after_load_mb = 0.0;
  }

let fuzz_config o =
  {
    Campaign.seed = o.fuzz_seed;
    count = o.fuzz_count;
    jobs = Some jobs;
    max_shrink;
    corpus_dir = None;
    inject = false;
    base_cfg = Config.default;
  }

(* The program's own path. *)
let fuzz_pass o =
  let r = Campaign.run (fuzz_config o) in
  fuzz_result
    {
      kernels = r.Campaign.r_kernels;
      passed = r.Campaign.r_passed;
      promoted = r.Campaign.r_promoted;
      warp_insts = r.Campaign.r_warp_insts;
      forwards = r.Campaign.r_forwards;
      skips = r.Campaign.r_skips;
      sim_cycles = r.Campaign.r_cycles;
      styles = r.Campaign.r_styles;
      fails =
        List.map
          (fun f ->
            ( f.Campaign.fr_index,
              f.Campaign.fr_style,
              ( f.Campaign.fr_kind,
                f.Campaign.fr_detail,
                f.Campaign.fr_items_before,
                f.Campaign.fr_items_after,
                f.Campaign.fr_evals ) ))
          r.Campaign.r_failures;
    }

let promoted_of (plan : Plan.t) =
  let x, y, z = plan.Plan.block in
  Darsie_compiler.Promotion.resolves_redundant
    Darsie_compiler.Marking.Cond_redundant
    ~block:(Darsie_isa.Kernel.dim3 x ~y ~z)
    ~warp_size:32

(* Differential.check_case, one layer call at a time. An oracle mismatch
   gets check_case's verdict; when any other stage does not pass, the
   library's own check_case gives the verdict, so the traced run reports
   exactly what the campaign reports. *)
let differential case =
  let fallback () = Differential.check_case case in
  match
    span "perf.check.oracle" (fun () -> Oracle.check_subject (Plan.subject case))
  with
  | exception _ -> fallback ()
  | rep when not (Oracle.passed rep) ->
    let shown = List.filteri (fun i _ -> i < 3) rep.Oracle.mismatches in
    {
      Differential.v_failure =
        Some
          {
            Differential.f_kind = "oracle";
            f_detail = String.concat "; " (List.map Oracle.mismatch_line shown);
          };
      v_forwards = rep.Oracle.forwards;
      v_warp_insts = rep.Oracle.warp_insts;
      v_cycles = 0;
      v_skips = 0;
    }
  | rep -> (
    match
      let prep = Plan.prepared case in
      let kinfo =
        span "perf.compiler.kinfo" (fun () ->
            Kinfo.make ~warp_size:Config.default.Config.warp_size prep.W.launch)
      in
      let trace = generate prep.W.mem prep.W.launch in
      let run ff mode =
        gpu_run ~cls:"darsie" ~mode (fun () ->
            Gpu.run
              ~cfg:
                {
                  Config.default with
                  Config.fast_forward = ff;
                  Config.max_cycles = 5_000_000;
                }
              (Engine.factory ()) kinfo trace)
      in
      let on = run true "serial" in
      (on, run false "stepped")
    with
    | exception _ -> fallback ()
    | Ok on, Ok off
      when digest_of on = digest_of off
           && Result.is_ok (checked on)
           && Result.is_ok (checked off) ->
      {
        Differential.v_failure = None;
        v_forwards = rep.Oracle.forwards;
        v_warp_insts = rep.Oracle.warp_insts;
        v_cycles = on.Gpu.cycles;
        v_skips = on.Gpu.stats.Stats.skipped_prefetch;
      }
    | _ -> fallback ())

let kernel_of style plan =
  {
    k_style = style;
    k_promoted = promoted_of plan;
    k_clean = false;
    k_forwards = 0;
    k_warp_insts = 0;
    k_cycles = 0;
    k_skips = 0;
    k_fail = None;
  }

(* Campaign.run's per-kernel worker, with the same shrink predicates,
   so that every Gpu.run of the pass runs inside a span. *)
let fuzz_kernel o i =
  span ~args:[ ("kernel", Tel.Int i) ] "perf.kernel" @@ fun () ->
  let style, plan, built =
    span "perf.fuzz.generate" (fun () ->
        let style, plan = Gen.generate ~seed:o.fuzz_seed ~index:i in
        (style, plan, Plan.build plan))
  in
  let k = kernel_of style plan in
  let shrink predicate =
    span "perf.fuzz.shrink" (fun () ->
        Shrink.shrink ~predicate ~max_evals:max_shrink plan)
  in
  let fail kind detail (shrunk, evals) =
    Some (kind, detail, Plan.size plan, Plan.size shrunk, evals)
  in
  match built with
  | Error msg ->
    let predicate p = Result.is_error (Plan.build p) in
    { k with k_fail = fail "build" msg (shrink predicate) }
  | Ok case -> (
    let v = span "perf.fuzz.differential" (fun () -> differential case) in
    let k =
      {
        k with
        k_forwards = v.Differential.v_forwards;
        k_warp_insts = v.Differential.v_warp_insts;
        k_cycles = v.Differential.v_cycles;
        k_skips = v.Differential.v_skips;
      }
    in
    match v.Differential.v_failure with
    | None -> { k with k_clean = true }
    | Some f ->
      let kind = f.Differential.f_kind in
      let predicate p =
        match Plan.build p with
        | Error _ -> kind = "build"
        | Ok c -> (
          match (differential c).Differential.v_failure with
          | Some f' -> f'.Differential.f_kind = kind
          | None -> false)
      in
      { k with k_fail = fail kind f.Differential.f_detail (shrink predicate) })

let fuzz_pass_traced o =
  let kernels =
    Parallel.map ~jobs
      ~label:(Printf.sprintf "kernel %d")
      (fun i ->
        try fuzz_kernel o i
        with e ->
          let style, plan = Gen.generate ~seed:o.fuzz_seed ~index:i in
          let n = Plan.size plan in
          {
            (kernel_of style plan) with
            k_fail = Some ("crash", Printexc.to_string e, n, n, 0);
          })
      (List.init o.fuzz_count Fun.id)
  in
  let sum f = List.fold_left (fun acc k -> acc + f k) 0 kernels in
  let count p = List.length (List.filter p kernels) in
  fuzz_result
    {
      kernels = List.length kernels;
      passed = count (fun k -> k.k_clean);
      promoted = count (fun k -> k.k_promoted);
      warp_insts = sum (fun k -> k.k_warp_insts);
      forwards = sum (fun k -> k.k_forwards);
      skips = sum (fun k -> k.k_skips);
      sim_cycles = sum (fun k -> k.k_cycles);
      styles =
        List.sort_uniq compare (List.map (fun k -> k.k_style) kernels)
        |> List.map (fun st -> (st, count (fun k -> k.k_style = st)));
      fails =
        List.concat
          (List.mapi
             (fun i k ->
               match k.k_fail with Some f -> [ (i, k.k_style, f) ] | None -> [])
             kernels);
    }

let setup_fuzz o =
  ignore
    (Parallel.map ~jobs
       ~label:(Printf.sprintf "kernel %d")
       (fun i ->
         span ~args:[ ("kernel", Tel.Int i) ] "perf.kernel" (fun () ->
             match
               span "perf.fuzz.generate" (fun () ->
                   Plan.build (snd (Gen.generate ~seed:o.fuzz_seed ~index:i)))
             with
             | Error _ -> ()
             | Ok case ->
               let p = span "perf.workloads.prepare" (fun () -> Plan.prepared case) in
               ignore
                 (span "perf.compiler.kinfo" (fun () ->
                      Kinfo.make ~warp_size:32 p.W.launch));
               ignore (generate p.W.mem p.W.launch)))
       (List.init o.fuzz_count Fun.id))

(* ------------------------------------------------------------------ *)
(* Dispatch *)

let attempted o =
  match o.workload with
  | "matrix" -> List.length matrix_cells
  | "large" -> 2
  | _ -> o.fuzz_count

let setup o =
  match o.workload with
  | "matrix" ->
    let cache = Cache.create ~dir:o.dir () in
    ignore
      (Parallel.map ~jobs ~label:(fun w -> w.W.abbr) (setup_app cache ~scale:1)
         Registry.all)
  | "large" -> setup_app (Cache.create ~dir:o.dir ()) ~scale:o.large_scale (large_app o)
  | _ -> setup_fuzz o

let pass o ~traced =
  let cache = Cache.create ~dir:o.dir () in
  let p =
    match (o.workload, traced) with
    | "matrix", false -> matrix_pass cache
    | "matrix", true -> matrix_pass_traced cache
    | "large", false -> large_pass o cache
    | "large", true -> large_pass_traced o cache
    | _, false -> fuzz_pass o
    | _, true -> fuzz_pass_traced o
  in
  if Cache.misses cache > 0 then
    failwith "the timed phase missed the trace cache: set-up did not store it";
  p

(* Failed operations of one pass against the expectation, and the ones
   that differ from it at all. On fuzz a kernel the campaign reports
   failing is a failed operation even when that failure is expected. *)
let judge o expected outcomes =
  let mism = Derive.failures ~expected outcomes in
  let failed =
    if o.workload = "fuzz" then
      Derive.fuzz_failed ~count:o.fuzz_count ~expected outcomes
    else List.map fst mism
  in
  (failed, mism)

(* ------------------------------------------------------------------ *)
(* Traced-pass derivations *)

let spans_named (snap : Tel.snapshot) name =
  let acc = ref [] in
  let rec walk (s : Tel.span_node) =
    if s.Tel.sp_name = name then acc := s :: !acc;
    List.iter walk s.Tel.sp_children
  in
  List.iter (fun d -> List.iter walk d.Tel.dv_roots) snap.Tel.sn_domains;
  !acc

let arg_str k (s : Tel.span_node) =
  match List.assoc_opt k s.Tel.sp_args with Some (Tel.Str v) -> v | _ -> ""

let arg_int k (s : Tel.span_node) =
  match List.assoc_opt k s.Tel.sp_args with Some (Tel.Int v) -> v | _ -> 0

let total_ns spans =
  List.fold_left (fun acc s -> acc + s.Tel.sp_dur_ns) 0 spans

let sum_arg k spans = List.fold_left (fun acc s -> acc + arg_int k s) 0 spans

let counter (snap : Tel.snapshot) k =
  Option.value ~default:0 (List.assoc_opt k snap.Tel.sn_counters)

let secs spans = float_of_int (total_ns spans) /. 1e9

let mb bytes = float_of_int bytes /. 1048576.0

let per_call_us spans =
  float_of_int (total_ns spans) /. 1e3 /. float_of_int (List.length spans)

let ns_per_cycle spans =
  float_of_int (total_ns spans) /. float_of_int (sum_arg "cycles" spans)

(* Each metric appears only where its layer ran; run.py reports the rest
   as 0. [bytes] is the size of the trace entries stored or loaded. *)
let setup_layers snap ~bytes =
  let gen = spans_named snap "perf.trace.generate" in
  let ops = sum_arg "ops" gen in
  let store = spans_named snap "perf.trace.store" in
  [
    ("workloads.prepare_s", secs (spans_named snap "perf.workloads.prepare"));
    ("trace.generate_s", secs gen);
    ("trace.ops", float_of_int ops);
    ("trace.generate_ops_per_s", float_of_int ops /. secs gen);
  ]
  @ if store = [] then [] else [ ("trace.store_mb_per_s", mb bytes /. secs store) ]

let pass_layers o snap ~wall ~heap ~bytes =
  let named = spans_named snap in
  let runs = named "perf.timing.gpu_run" in
  let where k v = List.filter (fun s -> arg_str k s = v) runs in
  let opt name spans f = if spans = [] then [] else [ (name, f spans) ] in
  let count k = float_of_int (counter snap k) in
  let find = named "perf.trace.find" in
  let sharded = where "mode" "sharded" in
  (* ff.cycles_elided counts the serial loop's runs with fast-forward on *)
  let ff_runs = where "mode" "serial" @ where "mode" "profiled" in
  [
    ("timing.gpu_run_s", secs runs);
    ("timing.cycles", float_of_int (sum_arg "cycles" runs));
    ("timing.runs", float_of_int (List.length runs));
    ("timing.ns_per_cycle", ns_per_cycle runs);
    ( "timing.ns_per_warp_inst",
      float_of_int (total_ns runs) /. float_of_int (sum_arg "warp_insts" runs) );
    ("timing.us_per_run", per_call_us runs);
  ]
  @ opt "compiler.kinfo_us_per_kernel" (named "perf.compiler.kinfo") per_call_us
  @ opt "trace.load_mb_per_s" find (fun f -> mb bytes /. secs f)
  @ opt "trace.bytes_per_op" find (fun f ->
        float_of_int bytes /. float_of_int (sum_arg "ops" f))
  @ (if heap > 0.0 then [ ("trace.heap_mb", heap) ] else [])
  @ opt "timing.base_ns_per_cycle" (where "class" "base") ns_per_cycle
  @ opt "timing.stepped_ns_per_cycle" (where "mode" "stepped") ns_per_cycle
  @ opt "timing.ff_elided_pct" ff_runs (fun r ->
        100.0 *. count "ff.cycles_elided" /. float_of_int (sum_arg "cycles" r))
  @ opt "timing.shard_ns_per_cycle" sharded ns_per_cycle
  @ (if sharded = [] then []
     else
       let gpu_run =
         List.concat_map
           (fun s ->
             List.filter (fun c -> c.Tel.sp_name = "gpu.run") s.Tel.sp_children)
           sharded
       in
       [
         ("timing.shard_epochs", count "shard.epochs");
         ("timing.shard_dram_batched", count "shard.dram_batched");
         ( "timing.shard_worker_busy_pct",
           100.0 *. secs (named "sim.shard") /. secs gpu_run );
       ])
  @ opt "core.darsie_ns_per_cycle" (where "class" "darsie") ns_per_cycle
  @ opt "baselines.ns_per_cycle" (where "class" "baseline") ns_per_cycle
  @ opt "obs.profiled_ns_per_cycle" (where "mode" "profiled") ns_per_cycle
  @ opt "obs.check_s" (named "perf.obs.check") secs
  @ opt "obs.export_s" (named "perf.obs.export") secs
  @ opt "check.oracle_us_per_kernel" (named "perf.check.oracle") per_call_us
  @ opt "fuzz.generate_us_per_kernel" (named "perf.fuzz.generate") per_call_us
  @ opt "fuzz.differential_us_per_kernel" (named "perf.fuzz.differential")
      per_call_us
  @ (if o.workload = "fuzz" then
       [
         ("fuzz.shrink_s", secs (named "perf.fuzz.shrink"));
         ("fuzz.shrink_evals", count "shrink.evals");
       ]
     else [])
  @
  if counter snap "pool.items" = 0 then []
  else
    let busy_s =
      Option.value ~default:0.0 (List.assoc_opt "pool.busy_s" snap.Tel.sn_walls)
    in
    [ ("harness.pool_busy_pct", 100.0 *. busy_s /. (float_of_int jobs *. wall)) ]

(* ------------------------------------------------------------------ *)
(* Output *)

let json_float f = Printf.sprintf "%.17g" f

let json_obj kvs =
  "{"
  ^ String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k v) kvs)
  ^ "}"

let json_str s = Printf.sprintf "%S" s

let layers_json layers =
  json_obj (List.map (fun (k, v) -> (k, json_float v)) layers)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let peak_rss_mb () =
  match Derive.vmhwm_mb (read_file "/proc/self/status") with
  | Some mb -> mb
  | None -> failwith "no VmHWM line in /proc/self/status"

let report_mismatches mism =
  List.iter (fun (op, why) -> Printf.printf "MISMATCH %s: %s\n" op why) mism

let run_setup o =
  if o.trace then Tel.enable ();
  let t0 = now () in
  setup o;
  let setup_s = now () -. t0 in
  let layers =
    if o.trace then setup_layers (Tel.snapshot ()) ~bytes:(dir_bytes o.dir)
    else []
  in
  Printf.printf "set-up: %.3f s\n" setup_s;
  print_endline
    (json_obj [ ("setup_s", json_float setup_s); ("layers", layers_json layers) ])

(* One timed pass in this fresh process, as a later run pays it: load
   the traces set-up stored, simulate, check, export. *)
let run_pass o =
  let expected = Derive.parse_expected (read_file o.expected) in
  if o.trace then Tel.enable ();
  let t0 = now () in
  let p = pass o ~traced:o.trace in
  let wall_s = now () -. t0 in
  let peak = peak_rss_mb () in
  let snap = Tel.snapshot () in
  let outcomes = Lazy.force p.outcomes in
  let failed, mism = judge o expected outcomes in
  report_mismatches mism;
  Printf.printf "%s pass: %.3f s, %d operations, %d failed\n"
    (if o.trace then "traced" else "timed")
    wall_s (attempted o) (List.length failed);
  let gap = Option.map (fun g -> Derive.paper_gap_pct ~gmean_2d:g) p.gmean_2d in
  Option.iter
    (fun g ->
      Printf.printf
        "paper_gap_pct: %.4f %% (GMEAN-2D DARSIE speedup %.4f vs the paper's \
         %.2f)\n"
        g (Option.get p.gmean_2d) Derive.paper_gmean_2d)
    gap;
  let layers =
    if o.trace then
      pass_layers o snap ~wall:wall_s ~heap:p.heap_after_load_mb
        ~bytes:(dir_bytes o.dir)
    else []
  in
  print_endline
    (json_obj
       ([
          ("correct", string_of_bool (mism = []));
          ("attempted", string_of_int (attempted o));
          ("failed", "[" ^ String.concat ", " (List.map json_str failed) ^ "]");
          ( "outputs_md5",
            json_str
              (Digest.to_hex (Digest.string (Derive.render_expected outcomes))) );
          ("wall_s", json_float wall_s);
          ( "sim_cycles_per_s",
            json_float (Derive.sim_cycles_per_s ~cycles:p.cycles ~wall_s) );
          ("peak_rss_mb", json_float peak);
        ]
       @ (match gap with Some g -> [ ("paper_gap_pct", json_float g) ] | None -> [])
       @ [ ("layers", layers_json layers) ]))

let run_record o =
  let p = pass o ~traced:false in
  let outcomes = Lazy.force p.outcomes in
  Out_channel.with_open_bin o.expected (fun oc ->
      output_string oc (Derive.render_expected outcomes));
  Printf.printf "wrote %d expectations to %s\n" (List.length outcomes) o.expected;
  print_endline
    (json_obj [ ("recorded", string_of_int (List.length outcomes)) ])

let () =
  let mode = ref "" and workload = ref "" and dir = ref "" and expected = ref "" in
  let trace = ref 0 in
  let fuzz_seed = ref 0 and fuzz_count = ref 2000 in
  let large_app = ref "MM" and large_scale = ref 3 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "matrix | large | fuzz");
      ("--dir", Arg.Set_string dir, "trace-cache and scratch directory");
      ("--expected", Arg.Set_string expected, "expected-outputs file");
      ("--trace", Arg.Set_int trace, "1: record spans and report per-layer metrics");
      ("--fuzz-seed", Arg.Set_int fuzz_seed, "fuzz campaign seed (default 0)");
      ("--fuzz-count", Arg.Set_int fuzz_count, "fuzz kernels (default 2000)");
      ("--large-app", Arg.Set_string large_app, "large's application (default MM)");
      ("--large-scale", Arg.Set_int large_scale, "large's input scale (default 3)");
    ]
    (fun m -> mode := m)
    "main.exe (setup|run|record) --workload W --dir D [options]";
  if not (List.mem !workload [ "matrix"; "large"; "fuzz" ]) then
    failwith ("unknown workload " ^ !workload);
  if !dir = "" then failwith "--dir is required";
  let o =
    {
      mode = !mode;
      workload = !workload;
      dir = !dir;
      expected = !expected;
      trace = !trace = 1;
      fuzz_seed = !fuzz_seed;
      fuzz_count = !fuzz_count;
      large_app = !large_app;
      large_scale = !large_scale;
    }
  in
  match o.mode with
  | "setup" -> run_setup o
  | "run" -> run_pass o
  | "record" -> run_record o
  | m -> failwith ("unknown mode " ^ m)
