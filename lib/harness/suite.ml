open Darsie_timing
module W = Darsie_workloads.Workload
module Tel = Darsie_telemetry.Telemetry

type app = {
  workload : W.t;
  trace : Darsie_trace.Record.t;
  kinfo : Kinfo.t;
}

let load_app ?(scale = 1) ?cache (workload : W.t) =
  let args = [ ("app", Tel.Str workload.W.abbr) ] in
  let prepared =
    Tel.span ~args "app.prepare" (fun () -> workload.W.prepare ~scale)
  in
  let kinfo =
    Tel.span ~args "app.compile" (fun () ->
        Kinfo.make ~warp_size:32 prepared.W.launch)
  in
  let trace =
    Tel.span ~args "trace.load" (fun () ->
        match cache with
        | None -> Darsie_trace.Record.generate prepared.W.mem prepared.W.launch
        | Some c ->
          Darsie_trace.Cache.generate c ~name:workload.W.abbr ~scale
            prepared.W.mem prepared.W.launch)
  in
  { workload; trace; kinfo }

type machine =
  | Base
  | Uv
  | Dac_ideal
  | Darsie
  | Darsie_ignore_store
  | Darsie_no_cf_sync
  | Silicon_sync

let machine_name = function
  | Base -> "BASE"
  | Uv -> "UV"
  | Dac_ideal -> "DAC-IDEAL"
  | Darsie -> "DARSIE"
  | Darsie_ignore_store -> "DARSIE-IGNORE-STORE"
  | Darsie_no_cf_sync -> "DARSIE-NO-CF-SYNC"
  | Silicon_sync -> "SILICON-SYNC"

let all_machines =
  [ Base; Uv; Dac_ideal; Darsie; Darsie_ignore_store; Darsie_no_cf_sync;
    Silicon_sync ]

type run = {
  machine : machine;
  cfg : Config.t;  (* the exact configuration the cell ran under *)
  gpu : Gpu.result;
  energy : Darsie_energy.Energy_model.breakdown;
}

type matrix = {
  cfg : Config.t;
  apps : app list;
  runs : (string * machine, run) Hashtbl.t;
}

let factory_of = function
  | Base | Silicon_sync -> Engine.base_factory
  | Uv -> Darsie_baselines.Uv.factory
  | Dac_ideal -> Darsie_baselines.Dac_ideal.factory
  | Darsie -> Darsie_core.Darsie_engine.factory ()
  | Darsie_ignore_store ->
    Darsie_core.Darsie_engine.factory
      ~options:{ Darsie_core.Darsie_engine.ignore_store = true; no_cf_sync = false }
      ()
  | Darsie_no_cf_sync ->
    Darsie_core.Darsie_engine.factory
      ~options:{ Darsie_core.Darsie_engine.ignore_store = false; no_cf_sync = true }
      ()

let setup ?(cfg = Config.default) machine =
  let cfg =
    match machine with
    | Silicon_sync -> { cfg with Config.sync_at_branches = true }
    | _ -> cfg
  in
  (cfg, factory_of machine)

let run_app_checked ?cfg ?sink ?sample_interval ?deadline ?pcstat app machine =
  let cfg, factory = setup ?cfg machine in
  Tel.span
    ~args:
      [
        ("app", Tel.Str app.workload.W.abbr);
        ("machine", Tel.Str (machine_name machine));
      ]
    "sim.run"
    (fun () ->
      match
        Gpu.run ~cfg ?sink ?sample_interval ?deadline ?pcstat factory
          app.kinfo app.trace
      with
      | Ok gpu ->
        let energy = Darsie_energy.Energy_model.account cfg gpu.Gpu.stats in
        Ok { machine; cfg; gpu; energy }
      | Error e -> Error e)

let run_app ?cfg ?sink ?sample_interval ?pcstat app machine =
  match run_app_checked ?cfg ?sink ?sample_interval ?pcstat app machine with
  | Ok r -> r
  | Error e -> raise (Darsie_check.Sim_error.Simulation_error e)

(* Core-budget division: a pool of [jobs] worker domains each running a
   simulation sharded over [cfg.sm_domains] further domains would
   oversubscribe the machine [jobs * sm_domains] ways. Give each pool
   worker its fair share of the physical cores instead: with P =
   Parallel.default_jobs () cores, every worker may shard over at most
   max 1 (P / jobs) domains. Auto-sizing (sm_domains = 0) resolves to
   exactly that share; explicit requests are capped by it. Sharding is
   timing-invisible, so dividing the budget never changes any simulated
   result — only the schedule. *)
let divide_domains ~jobs (cfg : Config.t) =
  if jobs <= 1 || cfg.Config.sm_domains = 1 then cfg
  else begin
    let share = max 1 (Parallel.default_jobs () / jobs) in
    let d =
      if cfg.Config.sm_domains = 0 then share
      else min cfg.Config.sm_domains share
    in
    { cfg with Config.sm_domains = d }
  end

(* The (app x machine) matrix build, fanned out over [jobs] domains.
   Both stages — trace generation per app, then one timing run per
   (app, machine) cell — use Parallel.map, whose results come back in
   input order, so the matrix (and every figure, metrics document and
   trendline record folded out of it) is identical for any job count;
   [~jobs:1] does not spawn a domain and reproduces the serial harness
   exactly. *)
let build_matrix ?(cfg = Config.default) ?(scale = 1)
    ?(machines = all_machines)
    ?(apps = Darsie_workloads.Registry.all) ?(jobs = 1) ?cache () =
  let cfg = divide_domains ~jobs cfg in
  let apps =
    Parallel.map ~jobs
      ~label:(fun w -> w.W.abbr)
      (fun w -> load_app ~scale ?cache w)
      apps
  in
  let cells =
    List.concat_map (fun app -> List.map (fun m -> (app, m)) machines) apps
  in
  let results =
    Parallel.map ~jobs
      ~label:(fun (app, m) ->
        app.workload.W.abbr ^ "/" ^ machine_name m)
      (fun (app, m) -> ((app.workload.W.abbr, m), run_app ~cfg app m))
      cells
  in
  let runs = Hashtbl.create 128 in
  List.iter (fun (key, r) -> Hashtbl.replace runs key r) results;
  { cfg; apps; runs }

let get m abbr machine = Hashtbl.find m.runs (abbr, machine)

let speedup m abbr machine =
  let base = get m abbr Base and r = get m abbr machine in
  float_of_int base.gpu.Gpu.cycles /. float_of_int r.gpu.Gpu.cycles

let energy_reduction m abbr machine =
  let base = get m abbr Base and r = get m abbr machine in
  100.0
  *. (1.0
     -. r.energy.Darsie_energy.Energy_model.total
        /. base.energy.Darsie_energy.Energy_model.total)

let instr_reduction m abbr machine =
  let base = get m abbr Base and r = get m abbr machine in
  Stats_util.elimination_pct r.gpu.Gpu.stats
    ~baseline_issued:base.gpu.Gpu.stats.Stats.issued
