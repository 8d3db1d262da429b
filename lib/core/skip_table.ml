(* Entries and telemetry cells are arrays indexed by PC (the static
   instruction index), sized once per kernel, as the hardware table is
   looked up by PC (§4.3.1). Nothing reads the order the live entries are
   visited in: sweeps and flushes only add up counts, and a telemetry
   snapshot walks the PCs in ascending order. *)

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

  (* [cells.(pc)] is [None] until the PC is first counted. *)
  type t = { mutable now : int; cells : cell option array }

  let create ~pcs = { now = 0; cells = Array.make pcs None }

  let set_now t cycle = t.now <- cycle

  let now t = t.now

  let cell t pc =
    match t.cells.(pc) with
    | Some c -> c
    | None ->
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
      t.cells.(pc) <- Some c;
      c

  let note_parks t ~pc ~n =
    let c = cell t pc in
    c.parks <- c.parks + n

  let note_park t ~pc = note_parks t ~pc ~n:1

  let entries t =
    let acc = ref [] in
    for pc = Array.length t.cells - 1 downto 0 do
      match t.cells.(pc) with
      | None -> ()
      | Some c ->
        acc :=
          ( pc,
            {
              Darsie_obs.Pcstat.sk_allocs = c.allocs;
              sk_hits = c.hits;
              sk_parks = c.parks;
              sk_load_flushes = c.load_flushes;
              sk_barrier_flushes = c.barrier_flushes;
              sk_lifetime = c.lifetime;
            } )
          :: !acc
    done;
    !acc
end

type instance = {
  occ : int;
  leader : int;
  mutable leader_wb : bool;
  mutable done_mask : int;
  mem_dep : bool;
  born : int;  (* telemetry clock at allocation; 0 without telemetry *)
}

type t = {
  max_entries : int;
  rename_regs : int;
  mutable free : int;
  insts : instance list array;  (* by PC: the entry's live instances *)
  (* The PCs with an entry (a non-empty [insts]) are [live.(0 ..
     n_entries - 1)], and [at.(pc)] is a PC's index there (-1: none). *)
  live : int array;
  at : int array;
  mutable n_entries : int;
  mutable telemetry : Telemetry.t option;
  (* Store/atomic-flushed load instances, keyed (pc, occ), remembering
     what flushed them and who led; the skip ledger consumes one record
     per flushed instance to name the executing warp's fate. Cleared on
     [flush_all] — a barrier retires every pre-barrier occurrence. *)
  flushed : (int * int, [ `Store | `Atomic ] * int) Hashtbl.t;
}

let create ~pcs ~max_entries ~rename_regs =
  {
    max_entries;
    rename_regs;
    free = rename_regs;
    insts = Array.make pcs [];
    live = Array.make pcs 0;
    at = Array.make pcs (-1);
    n_entries = 0;
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

let lookup t ~pc ~occ = find_occ occ t.insts.(pc)

let find t ~pc ~occ =
  let i = lookup t ~pc ~occ in
  if i == absent then None else Some i

let has_free_reg t = t.free > 0

let has_entry_slot t ~pc = t.at.(pc) >= 0 || t.n_entries < t.max_entries

let can_allocate t ~pc = has_entry_slot t ~pc && has_free_reg t

(* Drop [pc] from the live PCs, moving the last one into its place;
   a walk down [live] may remove the PC it is at. *)
let remove_entry t pc =
  let k = t.at.(pc) and last = t.live.(t.n_entries - 1) in
  t.live.(k) <- last;
  t.at.(last) <- k;
  t.at.(pc) <- -1;
  t.n_entries <- t.n_entries - 1

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
  if t.at.(pc) < 0 then begin
    t.at.(pc) <- t.n_entries;
    t.live.(t.n_entries) <- pc;
    t.n_entries <- t.n_entries + 1
  end;
  t.insts.(pc) <- inst :: t.insts.(pc);
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

let sweep t ~pc ~majority =
  let insts = t.insts.(pc) in
  if any_freeable majority insts then begin
    let live, dead =
      List.partition (fun i -> not (freeable majority i)) insts
    in
    t.free <- t.free + List.length dead;
    List.iter (fun i -> tel_free t pc i `Swept) dead;
    t.insts.(pc) <- live;
    if live = [] then remove_entry t pc
  end

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
  for k = t.n_entries - 1 downto 0 do
    sweep t ~pc:t.live.(k) ~majority
  done

let flush_loads t ~kind =
  for k = t.n_entries - 1 downto 0 do
    let pc = t.live.(k) in
    let live, dead = List.partition (fun i -> not i.mem_dep) t.insts.(pc) in
    t.free <- t.free + List.length dead;
    List.iter
      (fun i ->
        tel_free t pc i `Load_flush;
        Hashtbl.replace t.flushed (pc, i.occ) (kind, i.leader))
      dead;
    t.insts.(pc) <- live;
    if live = [] then remove_entry t pc
  done

let consume_flush t ~pc ~occ =
  if Hashtbl.length t.flushed = 0 then None
  else
    match Hashtbl.find_opt t.flushed (pc, occ) with
    | None -> None
    | Some record ->
      Hashtbl.remove t.flushed (pc, occ);
      Some record

let flush_all t =
  for k = 0 to t.n_entries - 1 do
    let pc = t.live.(k) in
    List.iter (fun i -> tel_free t pc i `Barrier_flush) t.insts.(pc);
    t.insts.(pc) <- [];
    t.at.(pc) <- -1
  done;
  t.n_entries <- 0;
  Hashtbl.reset t.flushed;
  t.free <- t.rename_regs

let live_entries t = t.n_entries

let free_regs t = t.free

let live_instances t =
  let n = ref 0 in
  for k = 0 to t.n_entries - 1 do
    n := !n + List.length t.insts.(t.live.(k))
  done;
  !n

let check_invariants t =
  let fail fmt = Printf.ksprintf (fun m -> Error m) fmt in
  if t.free < 0 || t.free > t.rename_regs then
    fail "freelist out of range: %d of %d" t.free t.rename_regs
  else if t.free + live_instances t <> t.rename_regs then
    fail "register leak: %d free + %d live <> %d total" t.free
      (live_instances t) (t.rename_regs)
  else if t.n_entries > t.max_entries then
    fail "entry overflow: %d entries, %d slots" t.n_entries t.max_entries
  else
    let rec entry k =
      if k = t.n_entries then Ok ()
      else
        let pc = t.live.(k) in
        let insts = t.insts.(pc) in
        if t.at.(pc) <> k then
          fail "live entry %d holds pc %d, indexed at %d" k pc t.at.(pc)
        else if insts = [] then fail "empty entry at pc %d" pc
        else
          let occs = List.map (fun i -> i.occ) insts in
          if List.length (List.sort_uniq compare occs) <> List.length occs then
            fail "duplicate occurrence at pc %d" pc
          else if
            List.exists (fun i -> i.done_mask land (1 lsl i.leader) = 0) insts
          then fail "leader missing from done_mask at pc %d" pc
          else entry (k + 1)
    in
    entry 0
