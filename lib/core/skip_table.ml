(* Entries and telemetry cells are keyed by PC. Nothing reads a table's
   iteration order (snapshots sort by PC, sweeps only add up counts), so
   the key hashes to itself. *)
module Itbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal

  let hash (pc : int) = pc
end)

(* Per-PC entry telemetry, shared by every table the engine creates so
   the counts survive TB retirement (tables are per resident TB and die
   with it). The logical clock is set once per cycle by the engine. *)
module Telemetry = struct
  type cell = {
    mutable allocs : int;
    mutable hits : int;
    mutable parks : int;
    mutable load_flushes : int;
    mutable barrier_flushes : int;
    mutable lifetime : int;
  }

  type t = { mutable now : int; cells : cell Itbl.t }

  let create () = { now = 0; cells = Itbl.create 16 }

  let set_now t cycle = t.now <- cycle

  let now t = t.now

  let cell t pc =
    match Itbl.find t.cells pc with
    | c -> c
    | exception Not_found ->
      let c =
        {
          allocs = 0;
          hits = 0;
          parks = 0;
          load_flushes = 0;
          barrier_flushes = 0;
          lifetime = 0;
        }
      in
      Itbl.add t.cells pc c;
      c

  let note_parks t ~pc ~n =
    let c = cell t pc in
    c.parks <- c.parks + n

  let note_park t ~pc = note_parks t ~pc ~n:1

  let entries t =
    Itbl.fold
      (fun pc c acc ->
        ( pc,
          {
            Darsie_obs.Pcstat.sk_allocs = c.allocs;
            sk_hits = c.hits;
            sk_parks = c.parks;
            sk_load_flushes = c.load_flushes;
            sk_barrier_flushes = c.barrier_flushes;
            sk_lifetime = c.lifetime;
          } )
        :: acc)
      t.cells []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
end

type instance = {
  occ : int;
  leader : int;
  mutable leader_wb : bool;
  mutable done_mask : int;
  mem_dep : bool;
  born : int;  (* telemetry clock at allocation; 0 without telemetry *)
}

type entry = { pc : int; mutable instances : instance list }

type t = {
  max_entries : int;
  rename_regs : int;
  mutable free : int;
  table : entry Itbl.t;
  mutable telemetry : Telemetry.t option;
  (* Store/atomic-flushed load instances, keyed (pc, occ), remembering
     what flushed them and who led; the skip ledger consumes one record
     per flushed instance to name the executing warp's fate. Cleared on
     [flush_all] — a barrier retires every pre-barrier occurrence. *)
  flushed : (int * int, [ `Store | `Atomic ] * int) Hashtbl.t;
}

let create ~max_entries ~rename_regs =
  {
    max_entries;
    rename_regs;
    free = rename_regs;
    table = Itbl.create 16;
    telemetry = None;
    flushed = Hashtbl.create 16;
  }

let attach_telemetry t tel = t.telemetry <- Some tel

(* Telemetry bumps; all no-ops when no telemetry is attached. *)
let tel_free t pc (i : instance) kind =
  match t.telemetry with
  | None -> ()
  | Some tel -> (
    let c = Telemetry.cell tel pc in
    c.Telemetry.lifetime <-
      c.Telemetry.lifetime + max 0 (Telemetry.now tel - i.born);
    match kind with
    | `Swept -> ()
    | `Load_flush -> c.Telemetry.load_flushes <- c.Telemetry.load_flushes + 1
    | `Barrier_flush ->
      c.Telemetry.barrier_flushes <- c.Telemetry.barrier_flushes + 1)

let absent =
  { occ = -1; leader = -1; leader_wb = false; done_mask = 0; mem_dep = false;
    born = 0 }

let rec find_occ occ = function
  | [] -> absent
  | i :: rest -> if i.occ = occ then i else find_occ occ rest

let lookup t ~pc ~occ =
  match Itbl.find t.table pc with
  | e -> find_occ occ e.instances
  | exception Not_found -> absent

let find t ~pc ~occ =
  let i = lookup t ~pc ~occ in
  if i == absent then None else Some i

let has_free_reg t = t.free > 0

let has_entry_slot t ~pc =
  Itbl.mem t.table pc || Itbl.length t.table < t.max_entries

let can_allocate t ~pc = has_entry_slot t ~pc && has_free_reg t

let allocate t ~pc ~occ ~leader ~mem_dep =
  if not (can_allocate t ~pc) then
    invalid_arg "Skip_table.allocate: table or freelist exhausted";
  if lookup t ~pc ~occ != absent then
    invalid_arg "Skip_table.allocate: instance already live";
  let born =
    match t.telemetry with Some tel -> Telemetry.now tel | None -> 0
  in
  let inst =
    { occ; leader; leader_wb = false; done_mask = 1 lsl leader; mem_dep; born }
  in
  (match Itbl.find_opt t.table pc with
  | Some e -> e.instances <- inst :: e.instances
  | None -> Itbl.add t.table pc { pc; instances = [ inst ] });
  t.free <- t.free - 1;
  match t.telemetry with
  | None -> ()
  | Some tel ->
    let c = Telemetry.cell tel pc in
    c.Telemetry.allocs <- c.Telemetry.allocs + 1

(* Free instances whose value is no longer needed: the leader has written
   back and every warp currently on the majority path has passed. *)
let freeable majority i = i.leader_wb && majority land lnot i.done_mask = 0

let rec any_freeable majority = function
  | [] -> false
  | i :: rest -> freeable majority i || any_freeable majority rest

let sweep_entry t majority e =
  if any_freeable majority e.instances then begin
    let live, dead =
      List.partition (fun i -> not (freeable majority i)) e.instances
    in
    t.free <- t.free + List.length dead;
    List.iter (fun i -> tel_free t e.pc i `Swept) dead;
    e.instances <- live;
    if live = [] then Itbl.remove t.table e.pc
  end

let sweep t ~pc ~majority =
  match Itbl.find t.table pc with
  | e -> sweep_entry t majority e
  | exception Not_found -> ()

let mark_writeback t ~pc ~occ ~majority =
  let i = lookup t ~pc ~occ in
  if i != absent then i.leader_wb <- true;
  sweep t ~pc ~majority

let mark_passed t ~pc ~occ ~warp ~majority =
  let i = lookup t ~pc ~occ in
  if i != absent then begin
    i.done_mask <- i.done_mask lor (1 lsl warp);
    match t.telemetry with
    | None -> ()
    | Some tel ->
      let c = Telemetry.cell tel pc in
      c.Telemetry.hits <- c.Telemetry.hits + 1
  end;
  sweep t ~pc ~majority

let recheck t ~majority =
  let entries = Itbl.fold (fun _ e acc -> e :: acc) t.table [] in
  List.iter (sweep_entry t majority) entries

let flush_loads t ~kind =
  let entries = Itbl.fold (fun _ e acc -> e :: acc) t.table [] in
  List.iter
    (fun e ->
      let live, dead = List.partition (fun i -> not i.mem_dep) e.instances in
      t.free <- t.free + List.length dead;
      List.iter
        (fun i ->
          tel_free t e.pc i `Load_flush;
          Hashtbl.replace t.flushed (e.pc, i.occ) (kind, i.leader))
        dead;
      e.instances <- live;
      if live = [] then Itbl.remove t.table e.pc)
    entries

let consume_flush t ~pc ~occ =
  if Hashtbl.length t.flushed = 0 then None
  else
    match Hashtbl.find_opt t.flushed (pc, occ) with
    | None -> None
    | Some record ->
      Hashtbl.remove t.flushed (pc, occ);
      Some record

let flush_all t =
  Itbl.iter
    (fun pc e -> List.iter (fun i -> tel_free t pc i `Barrier_flush) e.instances)
    t.table;
  Itbl.reset t.table;
  Hashtbl.reset t.flushed;
  t.free <- t.rename_regs

let live_entries t = Itbl.length t.table

let free_regs t = t.free

let live_instances t =
  Itbl.fold (fun _ e acc -> acc + List.length e.instances) t.table 0

let check_invariants t =
  let fail fmt = Printf.ksprintf (fun m -> Error m) fmt in
  if t.free < 0 || t.free > t.rename_regs then
    fail "freelist out of range: %d of %d" t.free t.rename_regs
  else if t.free + live_instances t <> t.rename_regs then
    fail "register leak: %d free + %d live <> %d total" t.free
      (live_instances t) (t.rename_regs)
  else if Itbl.length t.table > t.max_entries then
    fail "entry overflow: %d entries, %d slots" (Itbl.length t.table)
      t.max_entries
  else
    Itbl.fold
      (fun key e acc ->
        match acc with
        | Error _ -> acc
        | Ok () ->
          if key <> e.pc then fail "entry keyed %d holds pc %d" key e.pc
          else if e.instances = [] then fail "empty entry at pc %d" e.pc
          else
            let occs = List.map (fun i -> i.occ) e.instances in
            if List.length (List.sort_uniq compare occs) <> List.length occs
            then fail "duplicate occurrence at pc %d" e.pc
            else if
              List.exists
                (fun i -> i.done_mask land (1 lsl i.leader) = 0)
                e.instances
            then fail "leader missing from done_mask at pc %d" e.pc
            else Ok ())
      t.table (Ok ())
