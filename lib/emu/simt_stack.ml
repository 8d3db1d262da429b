type entry = { reconv : int; mutable pc : int; mutable mask : int }

type t = { mutable stack : entry list }

let create ~full_mask =
  { stack = [ { reconv = -1; pc = 0; mask = full_mask } ] }

let top t =
  match t.stack with
  | [] -> invalid_arg "Simt_stack: empty"
  | e :: _ -> e

let active_mask t = match t.stack with [] -> 0 | e :: _ -> e.mask

let pc t = (top t).pc

let finished t = t.stack = []

let rec reconverge_if_needed t =
  match t.stack with
  | e :: rest when e.reconv >= 0 && e.pc = e.reconv ->
    t.stack <- rest;
    reconverge_if_needed t
  | _ -> ()

let advance t pc = (top t).pc <- pc

let diverge t ~reconv ~taken_pc ~taken_mask ~fallthrough_pc =
  let e = top t in
  let mask = e.mask in
  if taken_mask = 0 || taken_mask land lnot mask <> 0 || taken_mask = mask
  then invalid_arg "Simt_stack.diverge: mask is not a proper subset";
  let fall_mask = mask land lnot taken_mask in
  e.pc <- reconv;
  (* When paths only rejoin at exit there is no reconvergence entry to
     return to; the continuation entry is dropped. *)
  let rest = if reconv >= 0 then t.stack else List.tl t.stack in
  t.stack <-
    { reconv; pc = taken_pc; mask = taken_mask }
    :: { reconv; pc = fallthrough_pc; mask = fall_mask }
    :: rest

let retire_lanes t mask =
  let keep =
    List.filter_map
      (fun e ->
        let m = e.mask land lnot mask in
        if m = 0 then None
        else begin
          e.mask <- m;
          Some e
        end)
      t.stack
  in
  t.stack <- keep

let depth t = List.length t.stack
