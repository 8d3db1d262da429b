module Oracle = Darsie_check.Oracle
module Sim_error = Darsie_check.Sim_error
module Gpu = Darsie_timing.Gpu
module Config = Darsie_timing.Config
module Kinfo = Darsie_timing.Kinfo
module Json = Darsie_obs.Json

type failure = { f_kind : string; f_detail : string }

type verdict = {
  v_failure : failure option;
  v_forwards : int;
  v_warp_insts : int;
  v_cycles : int;
  v_skips : int;
}

let fail kind detail = { f_kind = kind; f_detail = detail }

let failed ?(forwards = 0) ?(warp_insts = 0) f =
  {
    v_failure = Some f;
    v_forwards = forwards;
    v_warp_insts = warp_insts;
    v_cycles = 0;
    v_skips = 0;
  }

(* Cap the simulation: generated kernels are tiny, so a run that needs
   millions of cycles is itself a bug worth reporting. *)
let cfg ~base ~fast_forward =
  { base with Config.fast_forward; Config.max_cycles = 5_000_000 }

let ledger_string l = Json.to_string (Darsie_obs.Ledger.to_json l)

let assoc_string kvs =
  String.concat " " (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) kvs)

(* First bit-level difference between the fast-forward-on and -off runs,
   or None when they agree everywhere we can observe. *)
let ff_diff (on : Gpu.result) (off : Gpu.result) =
  if on.Gpu.cycles <> off.Gpu.cycles then
    Some
      (Printf.sprintf "cycles: ff-on %d vs ff-off %d" on.Gpu.cycles
         off.Gpu.cycles)
  else if on.Gpu.stats <> off.Gpu.stats then Some "aggregate stats differ"
  else if on.Gpu.per_sm <> off.Gpu.per_sm then Some "per-SM stats differ"
  else if
    Darsie_obs.Attrib.to_assoc on.Gpu.attribution
    <> Darsie_obs.Attrib.to_assoc off.Gpu.attribution
  then
    Some
      (Printf.sprintf "attribution: ff-on {%s} vs ff-off {%s}"
         (assoc_string (Darsie_obs.Attrib.to_assoc on.Gpu.attribution))
         (assoc_string (Darsie_obs.Attrib.to_assoc off.Gpu.attribution)))
  else if
    Array.map Darsie_obs.Attrib.to_assoc on.Gpu.per_sm_attribution
    <> Array.map Darsie_obs.Attrib.to_assoc off.Gpu.per_sm_attribution
  then Some "per-SM attribution differs"
  else if on.Gpu.skip_telemetry <> off.Gpu.skip_telemetry then
    Some "skip telemetry differs"
  else if ledger_string on.Gpu.ledger <> ledger_string off.Gpu.ledger then
    Some
      (Printf.sprintf "ledger: ff-on %s vs ff-off %s"
         (ledger_string on.Gpu.ledger)
         (ledger_string off.Gpu.ledger))
  else if
    Array.map ledger_string on.Gpu.per_sm_ledger
    <> Array.map ledger_string off.Gpu.per_sm_ledger
  then Some "per-SM ledger differs"
  else None

let oracle_detail (rep : Oracle.report) =
  let shown = ref [] in
  List.iteri
    (fun i m -> if i < 3 then shown := Oracle.mismatch_line m :: !shown)
    rep.Oracle.mismatches;
  String.concat "; " (List.rev !shown)

let check_case ?(base_cfg = Config.default) (case : Plan.case) : verdict =
  match Oracle.check_subject (Plan.subject case) with
  | exception e -> failed (fail "crash" ("oracle stage: " ^ Printexc.to_string e))
  | rep when not (Oracle.passed rep) ->
      failed ~forwards:rep.Oracle.forwards ~warp_insts:rep.Oracle.warp_insts
        (fail "oracle" (oracle_detail rep))
  | rep -> (
      let forwards = rep.Oracle.forwards in
      let warp_insts = rep.Oracle.warp_insts in
      match
        let prep = Plan.prepared case in
        let kinfo =
          Kinfo.make ~warp_size:Config.default.Config.warp_size
            prep.Darsie_workloads.Workload.launch
        in
        let trace =
          Darsie_trace.Record.generate prep.Darsie_workloads.Workload.mem
            prep.Darsie_workloads.Workload.launch
        in
        let run ff =
          Gpu.run ~cfg:(cfg ~base:base_cfg ~fast_forward:ff)
            (Darsie_core.Darsie_engine.factory ())
            kinfo trace
        in
        (run true, run false)
      with
      | exception e ->
          failed ~forwards ~warp_insts
            (fail "crash" ("timing stage: " ^ Printexc.to_string e))
      | Error e, _ | _, Error e ->
          failed ~forwards ~warp_insts (fail "timing" (Sim_error.summary e))
      | Ok on, Ok off -> (
          let failure =
            match ff_diff on off with
            | Some d -> Some (fail "ff_divergence" d)
            | None ->
                Option.map
                  (fun (kind, msg) -> fail kind msg)
                  (Gpu.check_invariants [ on; off ])
          in
          match failure with
          | Some f -> failed ~forwards ~warp_insts f
          | None ->
              {
                v_failure = None;
                v_forwards = forwards;
                v_warp_insts = warp_insts;
                v_cycles = on.Gpu.cycles;
                v_skips = on.Gpu.stats.Darsie_timing.Stats.skipped_prefetch;
              }))

let exit_code f = if f.f_kind = "oracle" then 7 else 2
