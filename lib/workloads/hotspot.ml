(* HS — HotSpot (Rodinia), 16x16 threadblocks.

   One step of the thermal stencil: each cell's new temperature is
   computed from its four neighbours (clamped at the chip boundary with
   min/max — no divergence), its power dissipation and the ambient
   temperature. Column index arithmetic is conditionally redundant
   (tid.x-based); rows vary per warp. *)

open Darsie_isa
module B = Builder

let bdim = 16

let cap = 0.5

let rx = 1.0 /. 10.0

let ry = 1.0 /. 8.0

let rz = 1.0 /. 4.0

let amb = 80.0

let build () =
  let b = B.create ~name:"hotspot" ~nparams:5 () in
  let open B.O in
  (* params: 0=temp_in 1=power 2=temp_out 3=width 4=height *)
  let gx = Util.global_id_x b in
  let gy = Util.global_id_y b in
  let wm1 = B.reg b in
  B.sub b wm1 (p 3) (i 1);
  let hm1 = B.reg b in
  B.sub b hm1 (p 4) (i 1);
  (* clamped neighbour coordinates *)
  let clamp dst v lo hi =
    B.bin b Instr.Max_s dst v lo;
    B.bin b Instr.Min_s dst (r dst) hi
  in
  let xl = B.reg b in
  B.sub b xl (r gx) (i 1);
  clamp xl (r xl) (i 0) (r wm1);
  let xr2 = B.reg b in
  B.add b xr2 (r gx) (i 1);
  clamp xr2 (r xr2) (i 0) (r wm1);
  let yu = B.reg b in
  B.sub b yu (r gy) (i 1);
  clamp yu (r yu) (i 0) (r hm1);
  let yd = B.reg b in
  B.add b yd (r gy) (i 1);
  clamp yd (r yd) (i 0) (r hm1);
  (* addresses *)
  let w4 = B.reg b in
  B.shl b w4 (p 3) (i 2);
  let row = B.reg b in
  B.mul b row (r gy) (r w4);
  let addr_of dst base rowreg colreg =
    B.mad b dst colreg (i 4) base;
    B.add b dst (r dst) rowreg
  in
  let a_c = B.reg b in
  addr_of a_c (p 0) (r row) (r gx);
  let center = B.reg b in
  B.ld b Instr.Global center (r a_c) ();
  let a_w = B.reg b in
  addr_of a_w (p 0) (r row) (r xl);
  let west = B.reg b in
  B.ld b Instr.Global west (r a_w) ();
  let a_e = B.reg b in
  addr_of a_e (p 0) (r row) (r xr2);
  let east = B.reg b in
  B.ld b Instr.Global east (r a_e) ();
  let row_u = B.reg b in
  B.mul b row_u (r yu) (r w4);
  let a_n = B.reg b in
  addr_of a_n (p 0) (r row_u) (r gx);
  let north = B.reg b in
  B.ld b Instr.Global north (r a_n) ();
  let row_d = B.reg b in
  B.mul b row_d (r yd) (r w4);
  let a_s = B.reg b in
  addr_of a_s (p 0) (r row_d) (r gx);
  let south = B.reg b in
  B.ld b Instr.Global south (r a_s) ();
  let a_p = B.reg b in
  addr_of a_p (p 1) (r row) (r gx);
  let power = B.reg b in
  B.ld b Instr.Global power (r a_p) ();
  (* delta = cap * (power + (n + s - 2c)*ry + (e + w - 2c)*rx + (amb - c)*rz) *)
  let two_c = B.reg b in
  B.fmul b two_c (r center) (f 2.0);
  let ns = B.reg b in
  B.fadd b ns (r north) (r south);
  B.fsub b ns (r ns) (r two_c);
  let ew = B.reg b in
  B.fadd b ew (r east) (r west);
  B.fsub b ew (r ew) (r two_c);
  let az = B.reg b in
  B.fsub b az (f amb) (r center);
  let acc = B.reg b in
  B.fmul b acc (r ns) (f ry);
  B.fma b acc (r ew) (f rx) (r acc);
  B.fma b acc (r az) (f rz) (r acc);
  B.fadd b acc (r acc) (r power);
  let out = B.reg b in
  B.fma b out (r acc) (f cap) (r center);
  let a_o = B.reg b in
  addr_of a_o (p 2) (r row) (r gx);
  B.st b Instr.Global (r a_o) (r out);
  B.exit_ b;
  B.finish b

let reference ~w ~h temp power =
  let out = Array.make (w * h) 0.0 in
  let r32 = Util.r32 in
  for y = 0 to h - 1 do
    for x = 0 to w - 1 do
      let at a yy xx =
        let yy = max 0 (min (h - 1) yy) and xx = max 0 (min (w - 1) xx) in
        a.((yy * w) + xx)
      in
      let c = at temp y x in
      let two_c = r32 (c *. 2.0) in
      let ns = r32 (r32 (at temp (y - 1) x +. at temp (y + 1) x) -. two_c) in
      let ew = r32 (r32 (at temp y (x + 1) +. at temp y (x - 1)) -. two_c) in
      let az = r32 (amb -. c) in
      let acc = r32 (ns *. ry) in
      let acc = r32 (r32 (ew *. rx) +. acc) in
      let acc = r32 (r32 (az *. rz) +. acc) in
      let acc = r32 (acc +. power.((y * w) + x)) in
      out.((y * w) + x) <- r32 (r32 (acc *. cap) +. c)
    done
  done;
  out

let prepare ~scale =
  let w = 64 and h = 64 * scale in
  let kernel = build () in
  let mem = Darsie_emu.Memory.create () in
  let rng = Util.Rng.create 37 in
  let temp = Array.map (fun x -> Util.r32 (x +. 300.0)) (Util.Rng.f32_array rng (w * h) 40.0) in
  let power = Util.Rng.f32_array rng (w * h) 1.0 in
  let t_base = Darsie_emu.Memory.alloc mem (4 * w * h) in
  let p_base = Darsie_emu.Memory.alloc mem (4 * w * h) in
  let o_base = Darsie_emu.Memory.alloc mem (4 * w * h) in
  Darsie_emu.Memory.write_f32s mem t_base temp;
  Darsie_emu.Memory.write_f32s mem p_base power;
  let launch =
    Kernel.launch kernel
      ~grid:(Kernel.dim3 (w / bdim) ~y:(h / bdim))
      ~block:(Kernel.dim3 bdim ~y:bdim)
      ~params:[| t_base; p_base; o_base; w; h |]
  in
  let verify mem' =
    Workload.check_f32 ~tol:1e-3 ~name:"HS"
      ~expected:(reference ~w ~h temp power)
      (Darsie_emu.Memory.read_f32s mem' o_base (w * h))
  in
  { Workload.mem; launch; verify }

let workload =
  {
    Workload.abbr = "HS";
    full_name = "HotSpot";
    suite = "Rodinia";
    block_dim = (16, 16);
    dimensionality = Workload.D2;
    prepare;
  }
