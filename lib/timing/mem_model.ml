(* Int-keyed hash tables for the per-access hot paths; same hash as the
   polymorphic default (so bucket layouts — and thus any iteration
   order — are unchanged), but with monomorphic key equality. *)
module Int_tbl = Hashtbl.Make (struct
  type t = int

  let equal (a : int) (b : int) = a = b

  let hash = Hashtbl.hash
end)

let rec mem_int (x : int) = function
  | [] -> false
  | y :: ys -> y = x || mem_int x ys

let coalesce ~line_bytes accesses =
  let seen = Int_tbl.create 32 in
  let lines = ref [] in
  Array.iter
    (fun addr ->
      let line = addr - (addr mod line_bytes) in
      if not (Int_tbl.mem seen line) then begin
        Int_tbl.add seen line ();
        lines := line :: !lines
      end)
    accesses;
  List.rev !lines

let shared_conflicts ~banks accesses =
  if Array.length accesses = 0 then 0
  else begin
    (* bank = word address mod banks; distinct words on the same bank
       serialize, identical words broadcast *)
    let per_bank = Int_tbl.create 64 in
    Array.iter
      (fun addr ->
        let word = addr / 4 in
        let bank = word mod banks in
        let words =
          match Int_tbl.find_opt per_bank bank with
          | None -> []
          | Some ws -> ws
        in
        if not (mem_int word words) then
          Int_tbl.replace per_bank bank (word :: words))
      accesses;
    let worst =
      Int_tbl.fold (fun _ ws acc -> max acc (List.length ws)) per_bank 1
    in
    worst - 1
  end

module L1 = struct
  type set = { tags : int array; last_use : int array }

  type t = {
    assoc : int;
    line : int;
    nsets : int;
    sets : set array;
    mutable tick : int;
  }

  let create ~bytes ~assoc ~line =
    let nsets = max 1 (bytes / (assoc * line)) in
    {
      assoc;
      line;
      nsets;
      sets =
        Array.init nsets (fun _ ->
            { tags = Array.make assoc (-1); last_use = Array.make assoc 0 });
      tick = 0;
    }

  let locate t addr =
    let line_id = addr / t.line in
    let set = line_id mod t.nsets in
    let tag = line_id / t.nsets in
    (t.sets.(set), tag)

  let probe t addr =
    let set, tag = locate t addr in
    Array.exists (fun x -> x = tag) set.tags

  let access t addr =
    t.tick <- t.tick + 1;
    let set, tag = locate t addr in
    let hit = ref false in
    Array.iteri
      (fun i x ->
        if x = tag then begin
          hit := true;
          set.last_use.(i) <- t.tick
        end)
      set.tags;
    if not !hit then begin
      (* LRU victim *)
      let victim = ref 0 in
      for i = 1 to t.assoc - 1 do
        if set.last_use.(i) < set.last_use.(!victim) then victim := i
      done;
      set.tags.(!victim) <- tag;
      set.last_use.(!victim) <- t.tick
    end;
    !hit

  let flush t =
    Array.iter
      (fun s ->
        Array.fill s.tags 0 (Array.length s.tags) (-1);
        Array.fill s.last_use 0 (Array.length s.last_use) 0)
      t.sets
end

module Dram = struct
  type t = { txn_cycles : int; latency : int; mutable next_free : int }

  let create ~txn_cycles ~latency = { txn_cycles; latency; next_free = 0 }

  let request t ~now ~ntxns =
    let start = max now t.next_free in
    t.next_free <- start + (ntxns * t.txn_cycles);
    t.next_free + t.latency

  let busy_until t = t.next_free
end
