type t = int

let mask = 0xFFFFFFFF

let truncate x = x land mask

let zero = 0

let[@inline] of_int32 x = Int32.to_int x land mask

let[@inline] to_int32 x = Int32.of_int x

let to_signed x = if x land 0x80000000 <> 0 then x - 0x100000000 else x

let of_signed x = x land mask

let[@inline] of_float f = of_int32 (Int32.bits_of_float f)

let[@inline] to_float x = Int32.float_of_bits (to_int32 x)

let add a b = (a + b) land mask

let sub a b = (a - b) land mask

let mul a b =
  (* Split to avoid overflow of the native 63-bit product on 32x32 inputs:
     native ints hold 62-bit magnitudes, and 32x32 products fit in 64 bits
     only; compute the low 32 bits via 16-bit limbs. *)
  let alo = a land 0xFFFF and ahi = a lsr 16 in
  let blo = b land 0xFFFF and bhi = b lsr 16 in
  let lo = alo * blo in
  let mid = ((alo * bhi) + (ahi * blo)) land 0xFFFF in
  (lo + (mid lsl 16)) land mask

let mulhi_s a b =
  let p = Int64.mul (Int64.of_int (to_signed a)) (Int64.of_int (to_signed b)) in
  Int64.to_int (Int64.shift_right p 32) land mask

let div_s a b =
  if b = 0 then mask
  else
    let sa = to_signed a and sb = to_signed b in
    (* OCaml's (/) truncates toward zero, matching C/PTX semantics. *)
    of_signed (sa / sb)

let div_u a b = if b = 0 then mask else a / b

let rem_s a b =
  if b = 0 then a else of_signed (to_signed a mod to_signed b)

let rem_u a b = if b = 0 then a else a mod b

let neg a = (0 - a) land mask

let min_s a b = if to_signed a <= to_signed b then a else b

let max_s a b = if to_signed a >= to_signed b then a else b

let min_u a b = if a <= b then a else b

let max_u a b = if a >= b then a else b

let abs_s a = if to_signed a < 0 then neg a else a

let logand a b = a land b

let logor a b = a lor b

let logxor a b = a lxor b

let lognot a = lnot a land mask

let shl a b = if b land mask >= 32 then 0 else (a lsl b) land mask

let shr_u a b = if b land mask >= 32 then 0 else a lsr b

let shr_s a b =
  let s = to_signed a in
  if b land mask >= 32 then of_signed (s asr 62) else of_signed (s asr b)

(* Each float op computes in double and rounds once, to single
   precision, in [of_float]. It is written out in full, not passed to a
   higher-order helper: with [to_float] and [of_float] inlined, the
   intermediate floats stay unboxed and the op allocates nothing. *)
let fadd a b = of_float (to_float a +. to_float b)

let fsub a b = of_float (to_float a -. to_float b)

let fmul a b = of_float (to_float a *. to_float b)

let fdiv a b = of_float (to_float a /. to_float b)

let ffma a b c =
  of_float ((to_float a *. to_float b) +. to_float c)

let fmin a b =
  let x = to_float a and y = to_float b in
  if Float.is_nan x then b else if Float.is_nan y then a else if x <= y then a else b

let fmax a b =
  let x = to_float a and y = to_float b in
  if Float.is_nan x then b else if Float.is_nan y then a else if x >= y then a else b

let fneg a = a lxor 0x80000000

let fabs a = a land 0x7FFFFFFF

let fsqrt a = of_float (sqrt (to_float a))

let frcp a = of_float (1.0 /. to_float a)

let fexp2 a = of_float (Float.exp2 (to_float a))

let flog2 a = of_float (Float.log2 (to_float a))

let fsin a = of_float (sin (to_float a))

let fcos a = of_float (cos (to_float a))

let cvt_i2f a = of_float (float_of_int (to_signed a))

let cvt_u2f a = of_float (float_of_int a)

let cvt_f2i a =
  let f = to_float a in
  if Float.is_nan f then 0
  else if f >= 2147483647.0 then 0x7FFFFFFF
  else if f <= -2147483648.0 then 0x80000000
  else of_signed (int_of_float (Float.trunc f))

let cmp_s a b = compare (to_signed a) (to_signed b)

let cmp_u a b = compare a b

(* The three results are constant blocks, so the comparison allocates
   nothing. *)
let cmp_f a b =
  let x = to_float a and y = to_float b in
  if Float.is_nan x || Float.is_nan y then None
  else if x < y then Some (-1)
  else if x > y then Some 1
  else Some 0

let pp fmt x = Format.fprintf fmt "0x%08x" x
