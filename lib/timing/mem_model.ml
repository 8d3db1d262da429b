module Record = Darsie_trace.Record

(* Working storage for the two per-access functions below, so neither
   allocates on the issue path; grown on demand, owned by one SM. *)
type scratch = { mutable lines : int array; mutable keys : int array }

let scratch () = { lines = Array.make 32 0; keys = Array.make 32 0 }

let coalesce s ~line_bytes w i =
  let n = Record.naddrs w i in
  if n > Array.length s.lines then s.lines <- Array.make n 0;
  let lines = s.lines in
  let nl = ref 0 in
  for k = 0 to n - 1 do
    let a = Record.addr w i k in
    let line = a - (a mod line_bytes) in
    (* newest first: neighbouring lanes usually share the last line *)
    let j = ref (!nl - 1) in
    while !j >= 0 && lines.(!j) <> line do
      decr j
    done;
    if !j < 0 then begin
      lines.(!nl) <- line;
      incr nl
    end
  done;
  !nl

let line s k = s.lines.(k)

(* A word address is below 2^30 (addresses are 32-bit), and so is its
   bank, so (bank, word) packs into one int that sorts bank-major. *)
let word_bits = 30

let shared_conflicts s ~banks w i =
  let n = Record.naddrs w i in
  if n = 0 then 0
  else begin
    (* bank = word address mod banks; distinct words on the same bank
       serialize, identical words broadcast. Insertion-sort the packed
       (bank, word) keys, then count distinct words per bank run. *)
    if n > Array.length s.keys then s.keys <- Array.make n 0;
    let keys = s.keys in
    for k = 0 to n - 1 do
      let word = Record.addr w i k / 4 in
      let key = ((word mod banks) lsl word_bits) lor word in
      let j = ref (k - 1) in
      while !j >= 0 && keys.(!j) > key do
        keys.(!j + 1) <- keys.(!j);
        decr j
      done;
      keys.(!j + 1) <- key
    done;
    let worst = ref 1 and run = ref 1 in
    for k = 1 to n - 1 do
      if keys.(k) lsr word_bits <> keys.(k - 1) lsr word_bits then run := 1
      else if keys.(k) <> keys.(k - 1) then begin
        incr run;
        if !run > !worst then worst := !run
      end
    done;
    !worst - 1
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

  let set_of t addr = t.sets.(addr / t.line mod t.nsets)

  let tag_of t addr = addr / t.line / t.nsets

  let probe t addr =
    let tag = tag_of t addr in
    Array.exists (fun x -> x = tag) (set_of t addr).tags

  let access t addr =
    t.tick <- t.tick + 1;
    let set = set_of t addr and tag = tag_of t addr in
    let hit = ref false in
    for i = 0 to t.assoc - 1 do
      if set.tags.(i) = tag then begin
        hit := true;
        set.last_use.(i) <- t.tick
      end
    done;
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
