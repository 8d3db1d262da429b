(* SR1 — SRAD v1 (Rodinia), 512x1 threadblocks.

   Speckle-reducing anisotropic diffusion over a flat 2D image addressed
   with 1D thread ids: per pixel, gradient magnitudes from four clamped
   neighbours feed a rational diffusion coefficient (SFU divisions), which
   scales the Laplacian update. *)

open Darsie_isa
module B = Builder

let threads = 512

let lambda = 0.25

let eps = 1e-6

let build () =
  let b = B.create ~name:"srad" ~nparams:4 () in
  let open B.O in
  (* params: 0=img 1=out 2=width 3=height *)
  let gid = Util.global_id_x b in
  let row = B.reg b in
  B.bin b Instr.Div_s row (r gid) (p 2);
  let col = B.reg b in
  B.bin b Instr.Rem_s col (r gid) (p 2);
  let wm1 = B.reg b in
  B.sub b wm1 (p 2) (i 1);
  let hm1 = B.reg b in
  B.sub b hm1 (p 3) (i 1);
  let clamp dst v lo hi =
    B.bin b Instr.Max_s dst v lo;
    B.bin b Instr.Min_s dst (r dst) hi
  in
  let rn = B.reg b in
  B.sub b rn (r row) (i 1);
  clamp rn (r rn) (i 0) (r hm1);
  let rs = B.reg b in
  B.add b rs (r row) (i 1);
  clamp rs (r rs) (i 0) (r hm1);
  let cw = B.reg b in
  B.sub b cw (r col) (i 1);
  clamp cw (r cw) (i 0) (r wm1);
  let ce = B.reg b in
  B.add b ce (r col) (i 1);
  clamp ce (r ce) (i 0) (r wm1);
  let w4 = B.reg b in
  B.shl b w4 (p 2) (i 2);
  let load dst rowreg colreg =
    let a = B.reg b in
    B.mul b a rowreg (r w4);
    B.add b a (r a) (p 0);
    let c4 = B.reg b in
    B.shl b c4 colreg (i 2);
    B.add b a (r a) (r c4);
    B.ld b Instr.Global dst (r a) ()
  in
  let c = B.reg b in
  load c (r row) (r col);
  let vn = B.reg b in
  load vn (r rn) (r col);
  let vs = B.reg b in
  load vs (r rs) (r col);
  let vw = B.reg b in
  load vw (r row) (r cw);
  let ve = B.reg b in
  load ve (r row) (r ce);
  let dn = B.reg b in
  B.fsub b dn (r vn) (r c);
  let ds_ = B.reg b in
  B.fsub b ds_ (r vs) (r c);
  let dw = B.reg b in
  B.fsub b dw (r vw) (r c);
  let de = B.reg b in
  B.fsub b de (r ve) (r c);
  (* g2 = (dn^2 + ds^2 + dw^2 + de^2) / (c^2 + eps) *)
  let g2 = B.reg b in
  B.fmul b g2 (r dn) (r dn);
  B.fma b g2 (r ds_) (r ds_) (r g2);
  B.fma b g2 (r dw) (r dw) (r g2);
  B.fma b g2 (r de) (r de) (r g2);
  let c2 = B.reg b in
  B.fmul b c2 (r c) (r c);
  B.fadd b c2 (r c2) (f eps);
  let q = B.reg b in
  B.bin b Instr.Fdiv q (r g2) (r c2);
  (* coef = 1 / (1 + q) *)
  let den = B.reg b in
  B.fadd b den (r q) (f 1.0);
  let coef = B.reg b in
  B.un b Instr.Frcp coef (r den);
  (* out = c + lambda * coef * (dn + ds + dw + de) *)
  let lap = B.reg b in
  B.fadd b lap (r dn) (r ds_);
  B.fadd b lap (r lap) (r dw);
  B.fadd b lap (r lap) (r de);
  B.fmul b lap (r lap) (r coef);
  let out = B.reg b in
  B.fma b out (r lap) (f lambda) (r c);
  let o_addr = B.reg b in
  B.mad b o_addr (r gid) (i 4) (p 1);
  B.st b Instr.Global (r o_addr) (r out);
  B.exit_ b;
  B.finish b

let reference ~w ~h img =
  let r32 = Util.r32 in
  Array.init (w * h) (fun idx ->
      let row = idx / w and col = idx mod w in
      let at rr cc =
        img.((max 0 (min (h - 1) rr) * w) + max 0 (min (w - 1) cc))
      in
      let c = at row col in
      let dn = r32 (at (row - 1) col -. c) in
      let ds_ = r32 (at (row + 1) col -. c) in
      let dw = r32 (at row (col - 1) -. c) in
      let de = r32 (at row (col + 1) -. c) in
      let g2 = r32 (dn *. dn) in
      let g2 = r32 (r32 (ds_ *. ds_) +. g2) in
      let g2 = r32 (r32 (dw *. dw) +. g2) in
      let g2 = r32 (r32 (de *. de) +. g2) in
      let c2 = r32 (r32 (c *. c) +. eps) in
      let q = r32 (g2 /. c2) in
      let coef = r32 (1.0 /. r32 (q +. 1.0)) in
      let lap = r32 (r32 (r32 (dn +. ds_) +. dw) +. de) in
      let lap = r32 (lap *. coef) in
      r32 (r32 (lap *. lambda) +. c))

let prepare ~scale =
  let w = 128 and h = 64 * scale in
  let kernel = build () in
  let mem = Darsie_emu.Memory.create () in
  let rng = Util.Rng.create 127 in
  let img = Array.map (fun x -> Util.r32 (x +. 0.5)) (Util.Rng.f32_array rng (w * h) 1.0) in
  let i_base = Darsie_emu.Memory.alloc mem (4 * w * h) in
  let o_base = Darsie_emu.Memory.alloc mem (4 * w * h) in
  Darsie_emu.Memory.write_f32s mem i_base img;
  let launch =
    Kernel.launch kernel
      ~grid:(Kernel.dim3 (w * h / threads))
      ~block:(Kernel.dim3 threads)
      ~params:[| i_base; o_base; w; h |]
  in
  let verify mem' =
    Workload.check_f32 ~tol:1e-3 ~name:"SR1"
      ~expected:(reference ~w ~h img)
      (Darsie_emu.Memory.read_f32s mem' o_base (w * h))
  in
  { Workload.mem; launch; verify }

let workload =
  {
    Workload.abbr = "SR1";
    full_name = "SRADV1";
    suite = "Rodinia";
    block_dim = (512, 1);
    dimensionality = Workload.D1;
    prepare;
  }
