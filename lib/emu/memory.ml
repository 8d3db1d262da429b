open Darsie_isa

type t = { mutable data : Bytes.t; mutable brk : int }

let base_address = 0x1000

let create ?(initial_bytes = 1 lsl 16) () =
  { data = Bytes.make initial_bytes '\000'; brk = base_address }

let check _t addr =
  if addr < 0 then invalid_arg "Memory: negative address";
  if addr land 3 <> 0 then
    invalid_arg (Printf.sprintf "Memory: misaligned word access at 0x%x" addr)

let ensure t upto =
  let len = Bytes.length t.data in
  if upto > len then begin
    let rec grow n = if n >= upto then n else grow (2 * n) in
    let bigger = Bytes.make (grow len) '\000' in
    Bytes.blit t.data 0 bigger 0 len;
    t.data <- bigger
  end

(* Words are read and written with the stdlib's (inlined) [Bytes] and
   [Int32] primitives: going through [Value.of_int32]/[to_int32], a call
   into another library, would box an [int32] per access. *)
let read_word data addr =
  if addr + 4 > Bytes.length data then Value.zero
  else Int32.to_int (Bytes.get_int32_le data addr) land 0xFFFF_FFFF

let load_u32 t addr =
  check t addr;
  read_word t.data addr

let store_u32 t addr v =
  check t addr;
  ensure t (addr + 4);
  Bytes.set_int32_le t.data addr (Int32.of_int v)

let load_f32 t addr = Value.to_float (load_u32 t addr)

let store_f32 t addr f = store_u32 t addr (Value.of_float f)

let alloc t nbytes =
  if nbytes < 0 then invalid_arg "Memory.alloc: negative size";
  let base = t.brk in
  t.brk <- (t.brk + nbytes + 255) land lnot 255;
  ensure t t.brk;
  base

let write_i32s t base xs =
  Array.iteri (fun i x -> store_u32 t (base + (4 * i)) (Value.of_signed x)) xs

let read_i32s t base n =
  Array.init n (fun i -> Value.to_signed (load_u32 t (base + (4 * i))))

let write_f32s t base xs =
  Array.iteri (fun i x -> store_f32 t (base + (4 * i)) x) xs

let read_f32s t base n = Array.init n (fun i -> load_f32 t (base + (4 * i)))

let extent t = Bytes.length t.data

let diff ?(limit = 32) a b =
  let words = (max (extent a) (extent b)) / 4 in
  let out = ref [] and n = ref 0 in
  let w = ref 0 in
  while !n < limit && !w < words do
    let addr = 4 * !w in
    let va = read_word a.data addr and vb = read_word b.data addr in
    if va <> vb then begin
      out := (addr, va, vb) :: !out;
      incr n
    end;
    incr w
  done;
  List.rev !out
