open Darsie_isa
open Darsie_emu

type warp = { ops : Bytes.t; addrs : Bytes.t }

type t = {
  launch : Kernel.launch;
  warp_size : int;
  tbs : warp array array;
  emu_stats : Interp.stats;
}

(* One op row is four little-endian u32 — the offset of the op's first
   address (in addresses), then idx, occ, active — and one sentinel
   offset follows the last row, so op [i]'s addresses are the half-open
   range between the offsets at rows [i] and [i + 1]. *)
let row_bytes = 16

let u32_max = 0xFFFF_FFFF

let get32 b pos = Int32.to_int (Bytes.get_int32_le b pos) land u32_max

let length w = (Bytes.length w.ops - 4) / row_bytes

let first w i = get32 w.ops (i * row_bytes)

let idx w i = get32 w.ops ((i * row_bytes) + 4)

let occ w i = get32 w.ops ((i * row_bytes) + 8)

let active w i = get32 w.ops ((i * row_bytes) + 12)

let naddrs w i = first w (i + 1) - first w i

let addr w i k = get32 w.addrs (4 * (first w i + k))

let well_formed ~ninsts w =
  let lo = Bytes.length w.ops and la = Bytes.length w.addrs in
  lo >= 4
  && (lo - 4) mod row_bytes = 0
  && la mod 4 = 0
  && first w 0 = 0
  && first w (length w) = la / 4
  &&
  let ok = ref true and i = ref 0 in
  while !ok && !i < length w do
    ok := first w !i <= first w (!i + 1) && idx w !i < ninsts;
    incr i
  done;
  !ok

(* A warp under construction: both buffers start small and double as
   they fill; [finish] copies the trace out at its exact size and empties
   the builder, keeping its buffers for the next warp. *)
type builder = {
  mutable ops_b : Bytes.t;
  mutable nops : int;
  mutable addrs_b : Bytes.t;
  mutable naddr : int;
}

let builder () =
  { ops_b = Bytes.create 64; nops = 0; addrs_b = Bytes.create 64; naddr = 0 }

(* A copy of [b] with room for [need] bytes, at least doubling it. The
   callers assign a buffer field only when it must grow: the assignment
   is a write barrier, too dear to pay on every op. *)
let grow b need =
  let bigger = Bytes.create (max need (2 * Bytes.length b)) in
  Bytes.blit b 0 bigger 0 (Bytes.length b);
  bigger

let check32 what v =
  if v < 0 || v > u32_max then
    invalid_arg (Printf.sprintf "Record: %s %d does not fit in 32 bits" what v)

let[@inline] put32 b pos v = Bytes.set_int32_le b pos (Int32.of_int v)

(* Append one op whose addresses are [addrs.(0 .. n - 1)]. The fields
   are written unchecked and their OR is checked once: a value outside
   [\[0, 2^32)] sets a bit above bit 31. Only then are they checked one
   by one, in layout order, to name the first bad one; the op is not
   committed, so the builder is unchanged. *)
let push b ~idx ~occ ~active addrs n =
  let pos = b.nops * row_bytes and apos = 4 * b.naddr in
  if pos + row_bytes > Bytes.length b.ops_b then
    b.ops_b <- grow b.ops_b (pos + row_bytes);
  if apos + (4 * n) > Bytes.length b.addrs_b then
    b.addrs_b <- grow b.addrs_b (apos + (4 * n));
  let ops = b.ops_b and abuf = b.addrs_b in
  put32 ops pos b.naddr;
  put32 ops (pos + 4) idx;
  put32 ops (pos + 8) occ;
  put32 ops (pos + 12) active;
  let bits = ref (b.naddr lor idx lor occ lor active) in
  for k = 0 to n - 1 do
    let a = addrs.(k) in
    put32 abuf (apos + (4 * k)) a;
    bits := !bits lor a
  done;
  if !bits land lnot u32_max <> 0 then begin
    check32 "address offset" b.naddr;
    check32 "instruction index" idx;
    check32 "occurrence" occ;
    check32 "active mask" active;
    for k = 0 to n - 1 do
      check32 "address" addrs.(k)
    done
  end;
  b.nops <- b.nops + 1;
  b.naddr <- b.naddr + n

let finish b =
  let pos = b.nops * row_bytes in
  if pos + 4 > Bytes.length b.ops_b then b.ops_b <- grow b.ops_b (pos + 4);
  check32 "address offset" b.naddr;
  put32 b.ops_b pos b.naddr;
  let w =
    {
      ops = Bytes.sub b.ops_b 0 (pos + 4);
      addrs = Bytes.sub b.addrs_b 0 (4 * b.naddr);
    }
  in
  b.nops <- 0;
  b.naddr <- 0;
  w

let warp_of_ops ops =
  let b = builder () in
  Array.iter
    (fun (idx, occ, active, addrs) ->
      push b ~idx ~occ ~active addrs (Array.length addrs))
    ops;
  finish b

let generate ?(warp_size = 32) mem (launch : Kernel.launch) =
  if warp_size > 32 then
    invalid_arg
      (Printf.sprintf "Record.generate: warp size %d exceeds the 32-bit mask"
         warp_size);
  let ntbs = Kernel.num_blocks launch in
  let nwarps = Kernel.warps_per_block launch ~warp_size in
  (* The emulator runs threadblocks one after another, so a TB's warps
     are copied out as soon as the next TB starts, and that TB reuses the
     same buffers: beside the finished trace, only one TB's worth of
     growing buffers is ever live. *)
  let tbs = Array.make ntbs [||] in
  let cur = ref 0 in
  let builders = Array.init nwarps (fun _ -> builder ()) in
  let close_tb () =
    tbs.(!cur) <- Array.map finish builders;
    incr cur
  in
  let on_exec (r : Interp.exec_record) =
    if r.Interp.tb < !cur then
      invalid_arg "Record.generate: threadblocks executed out of order";
    while r.Interp.tb > !cur do
      close_tb ()
    done;
    push
      builders.(r.Interp.warp)
      ~idx:r.Interp.inst_index ~occ:r.Interp.occ ~active:r.Interp.active
      r.Interp.addrs r.Interp.naddrs
  in
  let config = { Interp.warp_size; capture_operands = false } in
  let emu_stats = Interp.run ~config ~on_exec mem launch in
  while !cur < ntbs do
    close_tb ()
  done;
  { launch; warp_size; tbs; emu_stats }

let total_ops t =
  Array.fold_left
    (fun acc tb -> Array.fold_left (fun a w -> a + length w) acc tb)
    0 t.tbs

let num_tbs t = Array.length t.tbs

let warps_per_tb t = Kernel.warps_per_block t.launch ~warp_size:t.warp_size

let full_mask t = (1 lsl t.warp_size) - 1
