module W = Darsie_workloads.Workload
module Interp = Darsie_emu.Interp
module Gpu = Darsie_timing.Gpu
module Json = Darsie_obs.Json
module Sim_error = Darsie_check.Sim_error
module Injector = Darsie_check.Injector
module Oracle = Darsie_check.Oracle
module Tel = Darsie_telemetry.Telemetry

(* Wall-clock seconds since [t0], a {!Tel.elapsed_ns} reading. *)
let seconds_since t0 = float_of_int (Tel.elapsed_ns () - t0) /. 1e9

type timing_run = {
  machine : Suite.machine;
  outcome : (int, Sim_error.t) result;
}

type injection = { fault : Injector.fault; detected : bool; mismatch_count : int }

type app_report = {
  abbr : string;
  errors : Sim_error.t list;
  timing : timing_run list;
  oracle : Oracle.report option;
  injections : injection list;
  elapsed_s : float;
  replay : string;
}

type report = { apps : app_report list; elapsed_s : float }

let default_machines = [ Suite.Base; Suite.Darsie ]

(* The crash-isolation boundary: everything an app can throw — typed
   simulation errors, emulator faults, or any other exception — becomes a
   Sim_error value here instead of escaping the suite. *)
let capture f =
  match f () with
  | v -> Ok v
  | exception Sim_error.Simulation_error e -> Error e
  | exception Interp.Error e -> Error (Sim_error.of_emu e)
  | exception Interp.Fault m -> Error (Sim_error.Memory_fault { message = m })
  | exception e ->
    Error (Sim_error.Invariant_violation { message = Printexc.to_string e })

(* The exact command line that re-runs this app's checks in isolation;
   only non-default flags are spelled out, so a clean default run replays
   as just [darsie check <abbr>]. Budget and machine overrides are
   included too — a failure tripped by [--max-cycles] must replay with
   the budget that tripped it. *)
let replay_command ?cfg ?deadline ~machines ~scale ~oracle ~inject ~seed abbr =
  let module C = Darsie_timing.Config in
  let d = C.default in
  let cfg = Option.value cfg ~default:d in
  String.concat ""
    ([ "darsie check "; abbr ]
    @ (if machines = default_machines then []
       else
         List.map
           (fun m -> Printf.sprintf " -m %s" (Suite.machine_name m))
           machines)
    @ [
        (if scale <> 1 then Printf.sprintf " --scale %d" scale else "");
        (if not oracle then " --no-oracle" else "");
        (if inject > 0 then Printf.sprintf " --inject %d --seed %d" inject seed
         else "");
        (match deadline with
        | Some s -> Printf.sprintf " --deadline %g" s
        | None -> "");
        (if cfg.C.max_cycles <> d.C.max_cycles then
           Printf.sprintf " --max-cycles %d" cfg.C.max_cycles
         else "");
        (if cfg.C.watchdog_cycles <> d.C.watchdog_cycles then
           Printf.sprintf " --watchdog %d" cfg.C.watchdog_cycles
         else "");
        (if not cfg.C.fast_forward then " --no-fast-forward" else "");
      ]
    @ List.map
        (fun (flag, get) ->
          if get cfg = get d then ""
          else Printf.sprintf " --%s %d" flag (get cfg))
        [
          ("issue-width", fun c -> c.C.issue_width);
          ("mshrs", fun c -> c.C.mshrs);
          ("smem-banks", fun c -> c.C.smem_banks);
        ])

let check_app ?cfg ?(scale = 1) ?(machines = default_machines) ?(oracle = true)
    ?(inject = 0) ?(seed = 1) ?deadline ?cache (w : W.t) =
  Tel.span ~args:[ ("app", Tel.Str w.W.abbr) ] "check.app" @@ fun () ->
  let t0 = Tel.elapsed_ns () in
  let errors = ref [] in
  let note e = errors := e :: !errors in
  (* functional run against the CPU reference *)
  (match
     capture (fun () ->
         let p = w.W.prepare ~scale in
         match Interp.run_result p.W.mem p.W.launch with
         | Error e -> Error (Sim_error.of_emu e)
         | Ok _ -> (
           match p.W.verify p.W.mem with
           | Ok () -> Ok ()
           | Error msg ->
             Error
               (Sim_error.Invariant_violation
                  {
                    message =
                      Printf.sprintf "%s: functional verify failed: %s" w.W.abbr
                        msg;
                  })))
   with
  | Ok (Ok ()) -> ()
  | Ok (Error e) | Error e -> note e);
  (* timing runs, each under the cycle/watchdog/wall budgets *)
  let timing =
    match capture (fun () -> Suite.load_app ~scale ?cache w) with
    | Error e ->
      note e;
      []
    | Ok app ->
      List.map
        (fun machine ->
          let outcome =
            match
              capture (fun () ->
                  Suite.run_app_checked ?cfg ?deadline app machine)
            with
            | Error e | Ok (Error e) -> Error e
            | Ok (Ok r) -> (
              match Gpu.check_invariants [ r.Suite.gpu ] with
              | None -> Ok r.Suite.gpu.Gpu.cycles
              | Some (_, msg) ->
                Error
                  (Sim_error.Invariant_violation
                     {
                       message =
                         Printf.sprintf "%s/%s: %s" w.W.abbr
                           (Suite.machine_name machine)
                           msg;
                     }))
          in
          (match outcome with Error e -> note e | Ok _ -> ());
          { machine; outcome })
        machines
  in
  (* clean differential oracle *)
  let oracle_report =
    if not oracle then None
    else
      match capture (fun () -> Oracle.check ~scale w) with
      | Error e ->
        note e;
        None
      | Ok rep ->
        (match Oracle.to_error rep with Some e -> note e | None -> ());
        Some rep
  in
  (* seeded fault injection: every planned fault must be detected *)
  let injections =
    if inject <= 0 then []
    else
      match capture (fun () -> Oracle.candidates ~scale w) with
      | Error e ->
        note e;
        []
      | Ok cands ->
        List.map
          (fun fault ->
            match capture (fun () -> Oracle.check_fault ~scale w fault) with
            | Error _ ->
              (* the faulted replay died outright: that is a detection *)
              { fault; detected = true; mismatch_count = 0 }
            | Ok rep ->
              let detected = not (Oracle.passed rep) in
              if not detected then
                note
                  (Sim_error.Invariant_violation
                     {
                       message =
                         Printf.sprintf "%s: injected fault escaped the oracle (%s)"
                           w.W.abbr (Injector.fault_line fault);
                     });
              {
                fault;
                detected;
                mismatch_count = List.length rep.Oracle.mismatches;
              })
          (Injector.plan ~seed ~count:inject cands)
  in
  {
    abbr = w.W.abbr;
    errors = List.rev !errors;
    timing;
    oracle = oracle_report;
    injections;
    elapsed_s = seconds_since t0;
    replay =
      replay_command ?cfg ?deadline ~machines ~scale ~oracle ~inject ~seed
        w.W.abbr;
  }

let check_suite ?cfg ?scale ?machines ?oracle ?inject ?seed ?deadline ?cache
    ?(jobs = 1) ?(apps = Darsie_workloads.Registry.all) () =
  let t0 = Tel.elapsed_ns () in
  let cfg = Option.map (Suite.divide_domains ~jobs) cfg in
  (* check_app never raises (capture is its whole point), so Parallel.map
     cannot re-raise here; it is used purely for the domain fan-out and
     the input-ordered merge. *)
  let reports =
    Parallel.map ~jobs
      ~label:(fun w -> w.W.abbr)
      (fun w ->
        check_app ?cfg ?scale ?machines ?oracle ?inject ?seed ?deadline ?cache w)
      apps
  in
  { apps = reports; elapsed_s = seconds_since t0 }

let app_passed a = a.errors = []

let passed r = List.for_all app_passed r.apps

let worst_error r =
  List.fold_left
    (fun worst a ->
      List.fold_left
        (fun worst e ->
          match worst with
          | Some w when Sim_error.exit_code w >= Sim_error.exit_code e -> worst
          | _ -> Some e)
        worst a.errors)
    None r.apps

(* ------------------------------------------------------------------ *)
(* Rendering *)

let render r =
  let buf = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  List.iter
    (fun a ->
      let status = if app_passed a then "ok  " else "FAIL" in
      let timing =
        a.timing
        |> List.map (fun t ->
               match t.outcome with
               | Ok cycles ->
                 Printf.sprintf "%s %d cy" (Suite.machine_name t.machine) cycles
               | Error e ->
                 Printf.sprintf "%s %s"
                   (Suite.machine_name t.machine)
                   (Sim_error.kind_name e))
        |> String.concat ", "
      in
      let oracle =
        match a.oracle with
        | None -> ""
        | Some o when Oracle.passed o ->
          Printf.sprintf "; oracle ok (%d forwards / %d insts)" o.Oracle.forwards
            o.Oracle.warp_insts
        | Some o ->
          Printf.sprintf "; oracle FAILED (%d mismatches)"
            (List.length o.Oracle.mismatches)
      in
      let inj =
        match a.injections with
        | [] -> ""
        | l ->
          let det = List.length (List.filter (fun i -> i.detected) l) in
          Printf.sprintf "; %d/%d faults detected" det (List.length l)
      in
      line "%s %-4s %s%s%s (%.2fs)" status a.abbr timing oracle inj a.elapsed_s;
      List.iter (fun e -> line "       - %s" (Sim_error.summary e)) a.errors;
      if not (app_passed a) then line "       replay: %s" a.replay)
    r.apps;
  let ok = List.length (List.filter app_passed r.apps) in
  let injected, detected =
    List.fold_left
      (fun (i, d) a ->
        ( i + List.length a.injections,
          d + List.length (List.filter (fun x -> x.detected) a.injections) ))
      (0, 0) r.apps
  in
  line "check: %d/%d apps passed%s in %.2fs -> %s" ok (List.length r.apps)
    (if injected > 0 then
       Printf.sprintf ", %d/%d injected faults detected" detected injected
     else "")
    r.elapsed_s
    (if passed r then "PASS" else "FAIL");
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* JSON export (validated by Metrics.validate) *)

let timing_to_json t =
  let base =
    [
      ("machine", Json.String (Suite.machine_name t.machine));
      ("ok", Json.Bool (Result.is_ok t.outcome));
    ]
  in
  Json.Obj
    (base
    @
    match t.outcome with
    | Ok cycles -> [ ("cycles", Json.Int cycles) ]
    | Error e -> [ ("error", Sim_error.to_json e) ])

let injection_to_json i =
  Json.Obj
    [
      ("kind", Json.String (Injector.kind_name i.fault.Injector.kind));
      ("fault", Json.String (Injector.fault_line i.fault));
      ("detected", Json.Bool i.detected);
      ("mismatches", Json.Int i.mismatch_count);
    ]

let oracle_to_json (o : Oracle.report) =
  Json.Obj
    [
      ("passed", Json.Bool (Oracle.passed o));
      ("forwards", Json.Int o.Oracle.forwards);
      ("warp_insts", Json.Int o.Oracle.warp_insts);
      ("mismatches", Json.Int (List.length o.Oracle.mismatches));
    ]

let app_to_json a =
  Json.Obj
    [
      ("app", Json.String a.abbr);
      ("passed", Json.Bool (app_passed a));
      ("errors", Json.List (List.map Sim_error.to_json a.errors));
      ("timing", Json.List (List.map timing_to_json a.timing));
      ( "oracle",
        match a.oracle with None -> Json.Null | Some o -> oracle_to_json o );
      ("injections", Json.List (List.map injection_to_json a.injections));
      ("elapsed_s", Json.Float a.elapsed_s);
      ("replay", Json.String a.replay);
    ]

let to_json r =
  Json.Obj
    [
      ("kind", Json.String "check_report");
      ("schema_version", Json.Int Metrics.check_schema_version);
      ("passed", Json.Bool (passed r));
      ("apps", Json.List (List.map app_to_json r.apps));
      ("elapsed_s", Json.Float r.elapsed_s);
    ]
