open Darsie_timing
module Obs = Darsie_obs
module J = Obs.Json

let schema_version = Obs.Export.schema_version

let json_of_attrib a = J.Obj (List.map (fun (k, v) -> (k, J.Int v)) (Obs.Attrib.to_assoc a))

let json_of_series (series : Obs.Series.t array) =
  if Array.length series = 0 then J.Null
  else
    let s0 = series.(0) in
    J.Obj
      [
        ("interval", J.Int (Obs.Series.interval s0));
        ("names", J.List (List.map (fun n -> J.String n) (Obs.Series.names s0)));
        ( "per_sm",
          J.List
            (Array.to_list
               (Array.map
                  (fun s ->
                    J.List
                      (List.map
                         (fun (p : Obs.Series.point) ->
                           J.Obj
                             [
                               ("cycle", J.Int p.Obs.Series.cycle);
                               ( "values",
                                 J.List
                                   (List.map
                                      (fun v -> J.Int v)
                                      (Array.to_list p.Obs.Series.values)) );
                             ])
                         (Obs.Series.points s)))
                  series)) );
      ]

let json_of_energy (e : Darsie_energy.Energy_model.breakdown) =
  let open Darsie_energy.Energy_model in
  J.Obj
    [
      ("frontend_pj", J.Float e.frontend);
      ("register_file_pj", J.Float e.register_file);
      ("execute_pj", J.Float e.execute);
      ("memory_pj", J.Float e.memory);
      ("static_pj", J.Float e.static);
      ("darsie_overhead_pj", J.Float e.darsie_overhead);
      ("total_pj", J.Float e.total);
    ]

(* schema_version 3 added this echo of the exact configuration the run
   used: the scheduler name, the two behaviour flags, and every integer
   knob from Config.knobs. Named "machine_config" (the "machine" field
   already carries the paper-variant string, e.g. "DARSIE"). *)
let json_of_machine_config (cfg : Config.t) =
  J.Obj
    (("scheduler",
      J.String (match cfg.Config.scheduler with
                | Config.Gto -> "GTO"
                | Config.Lrr -> "LRR"))
    :: ("fast_forward", J.Bool cfg.Config.fast_forward)
    :: ("sync_at_branches", J.Bool cfg.Config.sync_at_branches)
    :: List.map (fun (k, v) -> (k, J.Int v)) (Config.knobs cfg))

let of_run ~app ?(scale = 1) (r : Suite.run) =
  let gpu = r.Suite.gpu in
  let stats = gpu.Gpu.stats in
  J.Obj
    [
      ("schema_version", J.Int schema_version);
      ("app", J.String app);
      ("machine", J.String (Suite.machine_name r.Suite.machine));
      ("machine_config", json_of_machine_config r.Suite.cfg);
      ("scale", J.Int scale);
      ("num_sms", J.Int (Array.length gpu.Gpu.per_sm));
      ("cycles", J.Int gpu.Gpu.cycles);
      ("tbs_per_sm", J.Int gpu.Gpu.tbs_per_sm);
      ( "counters",
        J.Obj (List.map (fun (k, v) -> (k, J.Int v)) (Stats_util.to_assoc stats))
      );
      ( "derived",
        J.Obj (List.map (fun (k, v) -> (k, J.Float v)) (Stats_util.derived stats))
      );
      ( "stall_attribution",
        J.Obj
          [
            ("total", json_of_attrib gpu.Gpu.attribution);
            ( "per_sm",
              J.List
                (Array.to_list
                   (Array.map json_of_attrib gpu.Gpu.per_sm_attribution)) );
          ] );
      ("series", json_of_series gpu.Gpu.series);
      ( "per_pc",
        match gpu.Gpu.pcstat with
        | Some p ->
          Obs.Pcstat.to_json ~skip_telemetry:gpu.Gpu.skip_telemetry p
        | None -> J.Null );
      ("skip_ledger", Obs.Ledger.to_json gpu.Gpu.ledger);
      ("energy", json_of_energy r.Suite.energy);
    ]

(* ------------------------------------------------------------------ *)
(* Validation core                                                     *)
(* ------------------------------------------------------------------ *)

let check_schema_version = 1

let fuzz_schema_version = 1

let sensitivity_schema_version = 1

let telemetry_schema_version = Darsie_telemetry.Host_trace.schema_version

(* A check raises [Invalid] naming the first identity it found broken. *)
exception Invalid of string

let fail fmt = Printf.ksprintf (fun m -> raise (Invalid m)) fmt

(* Dot-path selector: a name picks a field, "*" every list element or
   object value. A missing field selects nothing. *)
let select path doc =
  let step js key =
    List.concat_map
      (fun j ->
        match (key, j) with
        | "*", J.List l -> l
        | "*", J.Obj fields -> List.map snd fields
        | _ -> Option.to_list (J.member key j))
      js
  in
  List.fold_left step [ doc ] (String.split_on_char '.' path)

let one path doc =
  match select path doc with [ j ] -> j | _ -> fail "missing %s" path

let typed what conv path doc =
  match conv (one path doc) with
  | Some v -> v
  | None -> fail "%s is not %s" path what

let int = typed "an integer" J.to_int

let num =
  typed "a number" (function
    | J.Float f -> Some f | j -> Option.map float_of_int (J.to_int j))

let str = typed "a string" (function J.String s -> Some s | _ -> None)

let bool = typed "a boolean" (function J.Bool b -> Some b | _ -> None)

let list = typed "a list" (function J.List l -> Some l | _ -> None)

let obj = typed "an object" (function J.Obj f -> Some f | _ -> None)

let add what js =
  List.fold_left
    (fun acc j ->
      match J.to_int j with
      | Some i -> acc + i
      | None -> fail "%s is not an integer" what)
    0 js

(* Σ of the integers [path] selects. *)
let sum path doc = add path (select path doc)

let eq identity lhs rhs =
  if lhs <> rhs then fail "%s (%d vs %d)" identity lhs rhs

let between what lo hi v =
  if v < lo then fail "%s = %d, below %d" what v lo;
  if v > hi then fail "%s = %d, above %d" what v hi

let each path doc f = List.iter f (list path doc)

(* Every key of the object at [total] is the sum of that key over the
   objects [parts] select (a part without the key counts 0). *)
let columns total parts doc =
  List.iter
    (fun (k, v) ->
      let column p = List.filter_map (J.member k) (select p doc) in
      let what = Printf.sprintf "%s.%s" total k in
      eq
        (Printf.sprintf "%s = sum %s" what
           (String.concat " + " (List.map (fun p -> p ^ "." ^ k) parts)))
        (add what [ v ])
        (add what (List.concat_map column parts)))
    (obj total doc)

(* One check per document kind. The metrics document accepts versions
   2..current: version 2 predates the machine_config echo and the
   mem_struct bucket, and every identity below is bucket-name-agnostic. *)
let check_metrics doc =
  let v = int "schema_version" doc in
  between "schema_version" 2 schema_version v;
  let cycles = int "cycles" doc and num_sms = int "num_sms" doc in
  ignore (str "app" doc, str "machine" doc);
  if obj "counters" doc = [] then fail "counters is empty";
  if v >= 3 || J.member "machine_config" doc <> None then begin
    List.iter
      (fun (k, j) ->
        match j with
        | J.Int i when i < 0 -> fail "machine_config.%s is negative" k
        | J.Int _ | J.String _ | J.Bool _ -> ()
        | _ -> fail "machine_config.%s is ill-typed" k)
      (obj "machine_config" doc);
    if not (List.mem (str "machine_config.scheduler" doc) [ "GTO"; "LRR" ])
    then fail "machine_config.scheduler is not GTO or LRR";
    ignore (bool "machine_config.fast_forward" doc);
    ignore (bool "machine_config.sync_at_branches" doc);
    eq "machine_config.num_sms = num_sms"
      (int "machine_config.num_sms" doc) num_sms
  end;
  eq "length stall_attribution.per_sm = num_sms"
    (List.length (list "stall_attribution.per_sm" doc)) num_sms;
  each "stall_attribution.per_sm" doc (fun a ->
      eq "sum of an SM's stall buckets = cycles" (sum "*" a) cycles);
  eq "sum stall_attribution.total = num_sms * cycles"
    (sum "stall_attribution.total.*" doc) (num_sms * cycles);
  columns "stall_attribution.total" [ "stall_attribution.per_sm.*" ] doc;
  (* per_pc is null unless the run was profiled; its charges are the
     aggregate of what Gpu.check_attribution checks per SM *)
  if one "per_pc" doc <> J.Null then begin
    eq "length per_pc.rows = per_pc.n"
      (List.length (list "per_pc.rows" doc)) (int "per_pc.n" doc);
    eq "sum per_pc stall charges + unattributed = num_sms * cycles"
      (sum "per_pc.rows.*.stall.*" doc + sum "per_pc.unattributed.*" doc)
      (num_sms * cycles);
    columns "stall_attribution.total"
      [ "per_pc.rows.*.stall"; "per_pc.unattributed" ] doc
  end;
  (* the skip ledger, always on: Gpu.check_ledger over the file *)
  let expected = int "skip_ledger.expected_total" doc in
  eq "sum skip_ledger.totals = expected_total"
    (sum "skip_ledger.totals.*" doc) expected;
  eq "skip_ledger.captured = skipped + parked_waiting_leaderwb"
    (int "skip_ledger.captured" doc)
    (int "skip_ledger.totals.skipped" doc
    + int "skip_ledger.totals.parked_waiting_leaderwb" doc);
  each "skip_ledger.rows" doc (fun r ->
      eq
        (Printf.sprintf "skip_ledger row pc %d: sum of fates = expected"
           (int "pc" r))
        (sum "*" r - int "pc" r - int "expected" r)
        (int "expected" r));
  eq "sum skip_ledger.rows.*.expected = expected_total"
    (sum "skip_ledger.rows.*.expected" doc) expected;
  columns "skip_ledger.totals" [ "skip_ledger.rows.*" ] doc

(* darsie check --json: an app passed iff it has no errors, the report
   iff every app did, and each timing entry carries cycles or an error. *)
let check_report doc =
  eq "schema_version" (int "schema_version" doc) check_schema_version;
  each "apps" doc (fun a ->
      let app = str "app" a in
      if bool "passed" a <> (list "errors" a = []) then
        fail "app %s: passed flag disagrees with its errors list" app;
      each "timing" a (fun t ->
          match (bool "ok" t, J.member "cycles" t, J.member "error" t) with
          | true, Some (J.Int c), _ when c >= 0 -> ()
          | false, _, Some (J.Obj _) -> ()
          | _ -> fail "app %s: timing entry lacks cycles or an error" app));
  if bool "passed" doc <> List.for_all (bool "passed") (list "apps" doc) then
    fail "report passed flag disagrees with its apps"

(* darsie fuzz --json: every kernel is counted once by style and, in a
   clean campaign, once as passed or failed; shrinking never grows a
   counterexample; detected inject witnesses carry a site and a kernel. *)
let check_fuzz doc =
  eq "schema_version" (int "schema_version" doc) fuzz_schema_version;
  let count = int "count" doc and kernels = int "kernels" doc in
  eq "kernels = count" kernels count;
  ignore (obj "styles" doc);
  eq "sum styles = kernels" (sum "styles.*" doc) kernels;
  List.iter
    (fun k -> between ("totals." ^ k) 0 max_int (int ("totals." ^ k) doc))
    [ "warp_insts"; "forwards"; "skips"; "cycles" ];
  let passed = int "passed" doc and inject = bool "inject" doc in
  let failures = list "failures" doc and injected = list "injected" doc in
  each "failures" doc (fun f ->
      let i = int "index" f in
      between "failure index" 0 (count - 1) i;
      if int "items_after" f > int "items_before" f then
        fail "failure %d grew when shrunk" i;
      if str "replay" f = "" then fail "failure %d lacks a replay command" i);
  if (not inject) && injected <> [] then
    fail "clean campaign carries injected witnesses";
  if inject && failures <> [] then
    fail "inject campaign carries clean-mode failures";
  if not inject then
    eq "passed + failures = kernels" (passed + List.length failures) kernels;
  each "injected" doc (fun w ->
      let fault = str "fault" w in
      if bool "detected" w then begin
        ignore (int "index" w, obj "site" w);
        if int "instructions" w < 1 then
          fail "witness %s has an empty kernel" fault
      end)

(* Two serialized floats agree up to printing/re-parsing noise. *)
let close a b =
  Float.abs (a -. b)
  <= 1e-6 *. Float.max 1.0 (Float.max (Float.abs a) (Float.abs b))

(* darsie experiment sensitivity --json: every derived number re-derived
   from the raw cycles, every cell covering exactly the listed apps. *)
let check_sensitivity doc =
  eq "schema_version" (int "schema_version" doc) sensitivity_schema_version;
  ignore (int "scale" doc);
  between "smem_banks" 0 max_int (int "smem_banks" doc);
  let apps =
    List.map
      (function J.String s -> s | _ -> fail "apps entry is not a string")
      (list "apps" doc)
  in
  if apps = [] then fail "empty apps list";
  if list "cells" doc = [] then fail "empty cells list";
  each "cells" doc (fun c ->
      let iw = int "issue_width" c and m = int "mshrs" c in
      let cell = Printf.sprintf "cell issue_width=%d mshrs=%d" iw m in
      between (cell ^ ": issue_width") 1 max_int iw;
      between (cell ^ ": mshrs") 0 max_int m;
      let speedup r =
        let app = str "app" r and sp = num "speedup" r in
        let base = int "base_cycles" r and darsie = int "darsie_cycles" r in
        if base <= 0 || darsie <= 0 then
          fail "%s: app %s has non-positive cycles" cell app;
        if not (close sp (float_of_int base /. float_of_int darsie)) then
          fail "%s: app %s speedup %g <> %d / %d" cell app sp base darsie;
        sp
      in
      let rows = list "speedups" c in
      let speedups = List.map speedup rows in
      if List.map (str "app") rows <> apps then
        fail "%s does not cover exactly the listed apps" cell;
      if not (close (num "geomean" c) (Stats_util.geomean speedups)) then
        fail "%s: geomean does not reproduce from the app speedups" cell)

(* --telemetry FILE, or a bare host_telemetry section: the span clock's
   integer identities, Σ phase self_ns = Σ domain busy_ns exactly. *)
let check_telemetry doc =
  if J.member "traceEvents" doc <> None then begin
    if list "traceEvents" doc = [] then fail "traceEvents is empty";
    each "traceEvents" doc (fun e -> ignore (one "ph" e))
  end;
  let s = Option.value (J.member "host_telemetry" doc) ~default:doc in
  if str "kind" s <> "host_telemetry" then fail "kind is not host_telemetry";
  eq "schema_version" (int "schema_version" s) telemetry_schema_version;
  let wall = int "wall_ns" s in
  between "wall_ns" 0 max_int wall;
  each "phases" s (fun p ->
      let name = str "name" p in
      between (Printf.sprintf "phase %S count" name) 1 max_int (int "count" p);
      between (Printf.sprintf "phase %S self_ns" name) 0 (int "total_ns" p)
        (int "self_ns" p));
  each "domains" s (fun d ->
      let id = int "id" d and busy = int "busy_ns" d in
      between (Printf.sprintf "domain %d busy_ns" id) 0 wall busy;
      eq (Printf.sprintf "domain %d: busy_ns + idle_ns = wall_ns" id)
        (busy + int "idle_ns" d) wall);
  eq "sum phases.*.self_ns = sum domains.*.busy_ns"
    (sum "phases.*.self_ns" s) (sum "domains.*.busy_ns" s);
  List.iter
    (fun (k, v) ->
      let what = "counters." ^ k in
      between what 0 max_int (add what [ v ]))
    (obj "counters" s)

let checks =
  [
    ("metrics", check_metrics);
    ("check_report", check_report);
    ("fuzz_campaign", check_fuzz);
    ("sensitivity_sweep", check_sensitivity);
    ("host_telemetry", check_telemetry);
    ( "bench_record",
      fun doc ->
        match Trendline.of_json doc with Ok _ -> () | Error e -> fail "%s" e );
  ]

let kinds = List.map fst checks

let kind_of doc =
  match (doc, J.member "kind" doc) with
  | J.Obj _, Some (J.String k) when List.mem_assoc k checks -> Ok k
  | J.Obj _, Some k -> Error ("unknown document kind " ^ J.to_string k)
  | J.Obj _, None when J.member "host_telemetry" doc <> None ->
    Ok "host_telemetry"
  | J.Obj _, None when J.member "traceEvents" doc <> None ->
    Error "a bare Chrome trace (traceEvents without host_telemetry)"
  | J.Obj _, None -> Ok "metrics"
  | _ -> Error "not a JSON object"

let validate doc =
  Result.bind (kind_of doc) (fun kind ->
      try Ok (List.assoc kind checks doc) with Invalid msg -> Error msg)

let validate_string s =
  match J.of_string s with
  | Ok doc -> validate doc
  | Error e -> Error ("bad JSON: " ^ e)

let write_file path doc =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (J.pretty_to_string doc);
      output_char oc '\n')
