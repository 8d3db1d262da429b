module Obs = Darsie_obs
module Interp = Darsie_emu.Interp

type warp_snapshot = {
  ws_sm : int;
  ws_warp : int;
  ws_tb : int;
  ws_pc : int;
  ws_state : string;
  ws_detail : string;
}

type diagnostic = {
  d_cycle : int;
  d_engine : string;
  d_warps : warp_snapshot list;
  d_attribution : (string * int) list;
  d_notes : (string * int) list;
}

let empty_diagnostic =
  {
    d_cycle = 0;
    d_engine = "";
    d_warps = [];
    d_attribution = [];
    d_notes = [];
  }

type t =
  | Deadlock of { message : string; diag : diagnostic }
  | Cycle_bound of { bound : int; message : string; diag : diagnostic }
  | Wall_timeout of { budget_s : float; cycle : int; message : string }
  | Memory_fault of { message : string }
  | Invariant_violation of { message : string }
  | Oracle_mismatch of {
      app : string;
      machine : string;
      mismatches : int;
      message : string;
    }

exception Simulation_error of t

let park_snapshot tb (p : Interp.warp_park) =
  {
    ws_sm = -1;
    ws_warp = p.Interp.park_warp;
    ws_tb = tb;
    ws_pc = p.Interp.park_pc;
    ws_state =
      (match p.Interp.park_state with
      | Interp.Running -> "runnable"
      | Interp.At_barrier -> "at_barrier"
      | Interp.Exited -> "exited");
    ws_detail =
      (if p.Interp.park_barrier_pc >= 0 then
         Printf.sprintf "last barrier at inst %d" p.Interp.park_barrier_pc
       else "no barrier executed");
  }

let of_emu (e : Interp.error) =
  match e with
  | Interp.Barrier_deadlock { tb; warps } ->
    Deadlock
      {
        message = Interp.error_message e;
        diag =
          { empty_diagnostic with d_warps = List.map (park_snapshot tb) warps };
      }
  | Interp.No_progress { tb; warps } ->
    Deadlock
      {
        message = Interp.error_message e;
        diag =
          { empty_diagnostic with d_warps = List.map (park_snapshot tb) warps };
      }
  | Interp.Runaway { executed; bound } ->
    Cycle_bound
      {
        bound;
        message = Interp.error_message e;
        diag = { empty_diagnostic with d_cycle = executed };
      }
  | Interp.Exec_fault m -> Memory_fault { message = m }

let kind_name = function
  | Deadlock _ -> "deadlock"
  | Cycle_bound _ -> "cycle_bound"
  | Wall_timeout _ -> "wall_timeout"
  | Memory_fault _ -> "memory_fault"
  | Invariant_violation _ -> "invariant_violation"
  | Oracle_mismatch _ -> "oracle_mismatch"

let message = function
  | Deadlock { message; _ }
  | Cycle_bound { message; _ }
  | Wall_timeout { message; _ }
  | Memory_fault { message }
  | Invariant_violation { message }
  | Oracle_mismatch { message; _ } ->
    message

let diagnostic = function
  | Deadlock { diag; _ } | Cycle_bound { diag; _ } -> Some diag
  | Wall_timeout _ | Memory_fault _ | Invariant_violation _
  | Oracle_mismatch _ ->
    None

let first_line s =
  match String.index_opt s '\n' with
  | Some i -> String.sub s 0 i
  | None -> s

let summary t = Printf.sprintf "%s: %s" (kind_name t) (first_line (message t))

let exit_code = function
  | Invariant_violation _ -> 2
  | Deadlock _ -> 3
  | Cycle_bound _ -> 4
  | Wall_timeout _ -> 5
  | Memory_fault _ -> 6
  | Oracle_mismatch _ -> 7

let pp_diag fmt d =
  if d.d_cycle > 0 || d.d_engine <> "" then
    Format.fprintf fmt "@,at cycle %d%s" d.d_cycle
      (if d.d_engine = "" then "" else " (engine " ^ d.d_engine ^ ")");
  if d.d_warps <> [] then begin
    Format.fprintf fmt "@,warps:";
    List.iter
      (fun w ->
        Format.fprintf fmt "@,  %s warp %d (tb %d): %s at pc %d, %s"
          (if w.ws_sm >= 0 then Printf.sprintf "SM %d" w.ws_sm else "emu")
          w.ws_warp w.ws_tb w.ws_state w.ws_pc w.ws_detail)
      d.d_warps
  end;
  if d.d_attribution <> [] then begin
    Format.fprintf fmt "@,stall attribution:";
    List.iter
      (fun (name, n) -> if n > 0 then Format.fprintf fmt " %s=%d" name n)
      d.d_attribution
  end;
  if d.d_notes <> [] then begin
    Format.fprintf fmt "@,engine state:";
    List.iter (fun (name, n) -> Format.fprintf fmt " %s=%d" name n) d.d_notes
  end

let pp fmt t =
  Format.fprintf fmt "@[<v>%s: %s" (kind_name t) (message t);
  (match diagnostic t with Some d -> pp_diag fmt d | None -> ());
  Format.fprintf fmt "@]"

let json_of_warp w =
  Obs.Json.Obj
    [
      ("sm", Obs.Json.Int w.ws_sm);
      ("warp", Obs.Json.Int w.ws_warp);
      ("tb", Obs.Json.Int w.ws_tb);
      ("pc", Obs.Json.Int w.ws_pc);
      ("state", Obs.Json.String w.ws_state);
      ("detail", Obs.Json.String w.ws_detail);
    ]

let json_of_diag d =
  Obs.Json.Obj
    [
      ("cycle", Obs.Json.Int d.d_cycle);
      ("engine", Obs.Json.String d.d_engine);
      ("warps", Obs.Json.List (List.map json_of_warp d.d_warps));
      ( "attribution",
        Obs.Json.Obj
          (List.map (fun (k, v) -> (k, Obs.Json.Int v)) d.d_attribution) );
      ( "engine_state",
        Obs.Json.Obj (List.map (fun (k, v) -> (k, Obs.Json.Int v)) d.d_notes)
      );
    ]

let to_json t =
  let base =
    [
      ("kind", Obs.Json.String (kind_name t));
      ("message", Obs.Json.String (message t));
      ("exit_code", Obs.Json.Int (exit_code t));
    ]
  in
  let extra =
    match t with
    | Cycle_bound { bound; _ } -> [ ("bound", Obs.Json.Int bound) ]
    | Wall_timeout { budget_s; cycle; _ } ->
      [
        ("budget_seconds", Obs.Json.Float budget_s);
        ("cycle", Obs.Json.Int cycle);
      ]
    | Oracle_mismatch { app; machine; mismatches; _ } ->
      [
        ("app", Obs.Json.String app);
        ("machine", Obs.Json.String machine);
        ("mismatches", Obs.Json.Int mismatches);
      ]
    | Deadlock _ | Memory_fault _ | Invariant_violation _ -> []
  in
  let diag =
    match diagnostic t with
    | Some d -> [ ("diagnostic", json_of_diag d) ]
    | None -> []
  in
  Obs.Json.Obj (base @ extra @ diag)
