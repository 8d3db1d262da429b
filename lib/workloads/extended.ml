(* Extended workload set.

   Six additional kernels beyond the paper's Table 1, used to validate the
   simulator and DARSIE across a broader range of behaviours: tree
   reductions (warp-level divergence), tiled transpose (pure addressing
   redundancy), histogram (global atomics, which flush DARSIE's load
   entries), CSR SpMV (data-dependent loop trip counts, majority-path
   stress), n-body (uniform-load/SFU-dense like CP but 1D), and a 3D
   7-point stencil (exercises 3D launches and the tid.y extension). They
   are not part of the paper's evaluation and are kept out of
   Registry.all. *)

open Darsie_isa
module B = Builder
module M = Darsie_emu.Memory

let r32 = Util.r32

(* ------------------------------------------------------------------ *)
(* reduction: per-block sum of 256 ints via a shared-memory tree       *)
(* ------------------------------------------------------------------ *)

let reduction =
  let threads = 256 in
  let build () =
    let b = B.create ~name:"reduction" ~nparams:2 ~shared_bytes:(threads * 4) () in
    let open B.O in
    (* params: 0=in 1=out (one per block) *)
    let gid = Util.global_id_x b in
    let a = B.reg b in
    B.mad b a (r gid) (i 4) (p 0);
    let v = B.reg b in
    B.ld b Instr.Global v (r a) ();
    let sh = B.reg b in
    B.shl b sh tid_x (i 2);
    B.st b Instr.Shared (r sh) (r v);
    B.bar b;
    (* s = 128, 64, ..., 1 *)
    Util.counted_loop b ~bound:(i 8) (fun t ->
        let s = B.reg b in
        B.mov b s (i (threads / 2));
        B.bin b Instr.Shr_u s (r s) (r t);
        let skip = B.fresh_label b in
        let p_out = B.pred b in
        B.setp b Instr.Scmp Instr.Ge p_out tid_x (r s);
        B.bra b ~guard:(true, p_out) skip;
        let other = B.reg b in
        B.add b other tid_x (r s);
        B.shl b other (r other) (i 2);
        let ov = B.reg b in
        B.ld b Instr.Shared ov (r other) ();
        let mine = B.reg b in
        B.ld b Instr.Shared mine (r sh) ();
        B.add b mine (r mine) (r ov);
        B.st b Instr.Shared (r sh) (r mine);
        B.place b skip;
        B.bar b);
    let p0 = B.pred b in
    B.setp b Instr.Scmp Instr.Eq p0 tid_x (i 0);
    let total = B.reg b in
    B.ld b Instr.Shared total (Instr.Imm 0) ();
    let o = B.reg b in
    B.mad b o ctaid_x (i 4) (p 1);
    B.emit b ~guard:(true, p0)
      (Instr.St (Instr.Global, Instr.Reg o, 0, Instr.Reg total));
    B.exit_ b;
    B.finish b
  in
  let prepare ~scale =
    let blocks = 8 * scale in
    let kernel = build () in
    let mem = M.create () in
    let rng = Util.Rng.create 211 in
    let data = Util.Rng.i32_array rng (blocks * threads) 1000 in
    let i_base = M.alloc mem (4 * blocks * threads) in
    let o_base = M.alloc mem (4 * blocks) in
    M.write_i32s mem i_base data;
    let launch =
      Kernel.launch kernel ~grid:(Kernel.dim3 blocks)
        ~block:(Kernel.dim3 threads) ~params:[| i_base; o_base |]
    in
    let verify mem' =
      let expected =
        Array.init blocks (fun blk ->
            let s = ref 0 in
            for i = 0 to threads - 1 do
              s := !s + data.((blk * threads) + i)
            done;
            !s)
      in
      Workload.check_i32 ~name:"REDUCE" ~expected (M.read_i32s mem' o_base blocks)
    in
    { Workload.mem; launch; verify }
  in
  {
    Workload.abbr = "REDUCE";
    full_name = "block reduction";
    suite = "extended";
    block_dim = (threads, 1);
    dimensionality = Workload.D1;
    prepare;
  }

(* ------------------------------------------------------------------ *)
(* transpose: tiled matrix transpose through shared memory             *)
(* ------------------------------------------------------------------ *)

let transpose =
  let bdim = 16 in
  let build () =
    let b =
      B.create ~name:"transpose" ~nparams:3 ~shared_bytes:(bdim * bdim * 4) ()
    in
    let open B.O in
    (* params: 0=in 1=out 2=n *)
    let gx = Util.global_id_x b in
    let gy = Util.global_id_y b in
    let n4 = B.reg b in
    B.shl b n4 (p 2) (i 2);
    let a_in = B.reg b in
    B.mul b a_in (r gy) (r n4);
    B.add b a_in (r a_in) (p 0);
    let gx4 = B.reg b in
    B.shl b gx4 (r gx) (i 2);
    B.add b a_in (r a_in) (r gx4);
    let v = B.reg b in
    B.ld b Instr.Global v (r a_in) ();
    (* store transposed within the tile: tile[tx][ty] *)
    let s_in = B.reg b in
    B.mad b s_in tid_x (i bdim) tid_y;
    B.shl b s_in (r s_in) (i 2);
    B.st b Instr.Shared (r s_in) (r v);
    B.bar b;
    (* read back row-major and write to the transposed block position *)
    let s_out = B.reg b in
    B.mad b s_out tid_y (i bdim) tid_x;
    B.shl b s_out (r s_out) (i 2);
    let tv = B.reg b in
    B.ld b Instr.Shared tv (r s_out) ();
    let ox = B.reg b in
    B.mad b ox ctaid_y (i bdim) tid_x;
    let oy = B.reg b in
    B.mad b oy ctaid_x (i bdim) tid_y;
    let a_out = B.reg b in
    B.mul b a_out (r oy) (r n4);
    B.add b a_out (r a_out) (p 1);
    let ox4 = B.reg b in
    B.shl b ox4 (r ox) (i 2);
    B.add b a_out (r a_out) (r ox4);
    B.st b Instr.Global (r a_out) (r tv);
    B.exit_ b;
    B.finish b
  in
  let prepare ~scale =
    let n = 64 * scale in
    let kernel = build () in
    let mem = M.create () in
    let rng = Util.Rng.create 223 in
    let data = Util.Rng.i32_array rng (n * n) 100000 in
    let i_base = M.alloc mem (4 * n * n) in
    let o_base = M.alloc mem (4 * n * n) in
    M.write_i32s mem i_base data;
    let launch =
      Kernel.launch kernel
        ~grid:(Kernel.dim3 (n / bdim) ~y:(n / bdim))
        ~block:(Kernel.dim3 bdim ~y:bdim)
        ~params:[| i_base; o_base; n |]
    in
    let verify mem' =
      let expected =
        Array.init (n * n) (fun idx ->
            let y = idx / n and x = idx mod n in
            data.((x * n) + y))
      in
      Workload.check_i32 ~name:"TRANS" ~expected (M.read_i32s mem' o_base (n * n))
    in
    { Workload.mem; launch; verify }
  in
  {
    Workload.abbr = "TRANS";
    full_name = "tiled transpose";
    suite = "extended";
    block_dim = (bdim, bdim);
    dimensionality = Workload.D2;
    prepare;
  }

(* ------------------------------------------------------------------ *)
(* histogram: global atomics over 64 bins                              *)
(* ------------------------------------------------------------------ *)

let histogram =
  let threads = 256 in
  let bins = 64 in
  let build () =
    let b = B.create ~name:"histogram" ~nparams:2 () in
    let open B.O in
    (* params: 0=in 1=bins *)
    let gid = Util.global_id_x b in
    let a = B.reg b in
    B.mad b a (r gid) (i 4) (p 0);
    let v = B.reg b in
    B.ld b Instr.Global v (r a) ();
    let bin = B.reg b in
    B.bin b Instr.And bin (r v) (i (bins - 1));
    let ba = B.reg b in
    B.mad b ba (r bin) (i 4) (p 1);
    let old = B.reg b in
    B.atom b Instr.Atom_add old (r ba) (i 1);
    B.exit_ b;
    B.finish b
  in
  let prepare ~scale =
    let blocks = 8 * scale in
    let total = blocks * threads in
    let kernel = build () in
    let mem = M.create () in
    let rng = Util.Rng.create 227 in
    let data = Util.Rng.i32_array rng total 100000 in
    let i_base = M.alloc mem (4 * total) in
    let b_base = M.alloc mem (4 * bins) in
    M.write_i32s mem i_base data;
    let launch =
      Kernel.launch kernel ~grid:(Kernel.dim3 blocks)
        ~block:(Kernel.dim3 threads) ~params:[| i_base; b_base |]
    in
    let verify mem' =
      let expected = Array.make bins 0 in
      Array.iter
        (fun v ->
          let b = v land (bins - 1) in
          expected.(b) <- expected.(b) + 1)
        data;
      Workload.check_i32 ~name:"HIST" ~expected (M.read_i32s mem' b_base bins)
    in
    { Workload.mem; launch; verify }
  in
  {
    Workload.abbr = "HIST";
    full_name = "histogram (global atomics)";
    suite = "extended";
    block_dim = (threads, 1);
    dimensionality = Workload.D1;
    prepare;
  }

(* ------------------------------------------------------------------ *)
(* spmv: CSR sparse matrix-vector product, one row per thread          *)
(* ------------------------------------------------------------------ *)

let spmv =
  let threads = 128 in
  let build () =
    let b = B.create ~name:"spmv_csr" ~nparams:5 () in
    let open B.O in
    (* params: 0=row_ptr 1=cols 2=vals 3=x 4=y *)
    let row = Util.global_id_x b in
    let rp = B.reg b in
    B.mad b rp (r row) (i 4) (p 0);
    let start_ = B.reg b in
    B.ld b Instr.Global start_ (r rp) ();
    let stop = B.reg b in
    B.ld b Instr.Global stop (r rp) ~off:4 ();
    let acc = B.reg b in
    B.mov b acc (f 0.0);
    let j = B.reg b in
    B.mov b j (r start_);
    let p_more = B.pred b in
    (* data-dependent trip count: intra-warp divergence by design *)
    let top = B.fresh_label b in
    let done_ = B.fresh_label b in
    B.place b top;
    B.setp b Instr.Scmp Instr.Ge p_more (r j) (r stop);
    B.bra b ~guard:(true, p_more) done_;
    let ca = B.reg b in
    B.mad b ca (r j) (i 4) (p 1);
    let col = B.reg b in
    B.ld b Instr.Global col (r ca) ();
    let va = B.reg b in
    B.mad b va (r j) (i 4) (p 2);
    let mv = B.reg b in
    B.ld b Instr.Global mv (r va) ();
    let xa = B.reg b in
    B.mad b xa (r col) (i 4) (p 3);
    let xv = B.reg b in
    B.ld b Instr.Global xv (r xa) ();
    B.fma b acc (r mv) (r xv) (r acc);
    B.add b j (r j) (i 1);
    B.bra b top;
    B.place b done_;
    let ya = B.reg b in
    B.mad b ya (r row) (i 4) (p 4);
    B.st b Instr.Global (r ya) (r acc);
    B.exit_ b;
    B.finish b
  in
  let prepare ~scale =
    let rows = threads * 2 * scale in
    let cols_n = 64 in
    let rng = Util.Rng.create 229 in
    (* ragged rows: 0..7 nonzeros each *)
    let row_len = Array.init rows (fun _ -> Util.Rng.int rng 8) in
    let row_ptr = Array.make (rows + 1) 0 in
    for i = 0 to rows - 1 do
      row_ptr.(i + 1) <- row_ptr.(i) + row_len.(i)
    done;
    let nnz = row_ptr.(rows) in
    let cols = Array.init nnz (fun _ -> Util.Rng.int rng cols_n) in
    let vals = Array.init nnz (fun _ -> Util.Rng.float rng 2.0) in
    let x = Array.init cols_n (fun _ -> Util.Rng.float rng 2.0) in
    let kernel = build () in
    let mem = M.create () in
    let rp_base = M.alloc mem (4 * (rows + 1)) in
    let c_base = M.alloc mem (4 * (max nnz 1)) in
    let v_base = M.alloc mem (4 * (max nnz 1)) in
    let x_base = M.alloc mem (4 * cols_n) in
    let y_base = M.alloc mem (4 * rows) in
    M.write_i32s mem rp_base row_ptr;
    M.write_i32s mem c_base cols;
    M.write_f32s mem v_base vals;
    M.write_f32s mem x_base x;
    let launch =
      Kernel.launch kernel
        ~grid:(Kernel.dim3 (rows / threads))
        ~block:(Kernel.dim3 threads)
        ~params:[| rp_base; c_base; v_base; x_base; y_base |]
    in
    let verify mem' =
      let expected =
        Array.init rows (fun r ->
            let acc = ref 0.0 in
            for j = row_ptr.(r) to row_ptr.(r + 1) - 1 do
              acc := r32 (r32 (vals.(j) *. x.(cols.(j))) +. !acc)
            done;
            !acc)
      in
      Workload.check_f32 ~tol:1e-3 ~name:"SPMV" ~expected
        (M.read_f32s mem' y_base rows)
    in
    { Workload.mem; launch; verify }
  in
  {
    Workload.abbr = "SPMV";
    full_name = "CSR sparse matrix-vector";
    suite = "extended";
    block_dim = (threads, 1);
    dimensionality = Workload.D1;
    prepare;
  }

(* ------------------------------------------------------------------ *)
(* nbody: all-pairs force accumulation, uniform body loads             *)
(* ------------------------------------------------------------------ *)

let nbody =
  let threads = 256 in
  let nbodies = 32 in
  let build () =
    let b = B.create ~name:"nbody" ~nparams:3 () in
    let open B.O in
    (* params: 0=bodies (x,y quads of 2) 1=out 2=nbodies *)
    let gid = Util.global_id_x b in
    let fx = B.reg b in
    B.un b Instr.Cvt_i2f fx (r gid);
    B.fmul b fx (r fx) (f 0.015625);
    let acc = B.reg b in
    B.mov b acc (f 0.0);
    Util.counted_loop b ~bound:(p 2) (fun t ->
        let a = B.reg b in
        B.mad b a (r t) (i 8) (p 0);
        let bx = B.reg b in
        B.ld b Instr.Global bx (r a) ();
        let bm = B.reg b in
        B.ld b Instr.Global bm (r a) ~off:4 ();
        let dx = B.reg b in
        B.fsub b dx (r bx) (r fx);
        let d2 = B.reg b in
        B.fmul b d2 (r dx) (r dx);
        B.fadd b d2 (r d2) (f 0.01);
        let inv = B.reg b in
        B.un b Instr.Fsqrt inv (r d2);
        B.un b Instr.Frcp inv (r inv);
        let inv3 = B.reg b in
        B.fmul b inv3 (r inv) (r inv);
        B.fmul b inv3 (r inv3) (r inv);
        let f_ = B.reg b in
        B.fmul b f_ (r bm) (r inv3);
        B.fma b acc (r f_) (r dx) (r acc));
    let o = B.reg b in
    B.mad b o (r gid) (i 4) (p 1);
    B.st b Instr.Global (r o) (r acc);
    B.exit_ b;
    B.finish b
  in
  let prepare ~scale =
    let blocks = 4 * scale in
    let total = blocks * threads in
    let kernel = build () in
    let mem = M.create () in
    let rng = Util.Rng.create 233 in
    let bodies =
      Array.init (nbodies * 2) (fun i ->
          if i mod 2 = 0 then Util.Rng.float rng 8.0
          else r32 (Util.Rng.float rng 1.0 +. 0.1))
    in
    let b_base = M.alloc mem (4 * nbodies * 2) in
    let o_base = M.alloc mem (4 * total) in
    M.write_f32s mem b_base bodies;
    let launch =
      Kernel.launch kernel ~grid:(Kernel.dim3 blocks)
        ~block:(Kernel.dim3 threads)
        ~params:[| b_base; o_base; nbodies |]
    in
    let verify mem' =
      let expected =
        Array.init total (fun gid ->
            let fx = r32 (r32 (float_of_int gid) *. 0.015625) in
            let acc = ref 0.0 in
            for t = 0 to nbodies - 1 do
              let bx = bodies.(t * 2) and bm = bodies.((t * 2) + 1) in
              let dx = r32 (bx -. fx) in
              let d2 = r32 (r32 (dx *. dx) +. 0.01) in
              let inv = r32 (1.0 /. r32 (sqrt d2)) in
              let inv3 = r32 (r32 (inv *. inv) *. inv) in
              let f_ = r32 (bm *. inv3) in
              acc := r32 (r32 (f_ *. dx) +. !acc)
            done;
            !acc)
      in
      Workload.check_f32 ~tol:1e-2 ~name:"NBODY" ~expected
        (M.read_f32s mem' o_base total)
    in
    { Workload.mem; launch; verify }
  in
  {
    Workload.abbr = "NBODY";
    full_name = "all-pairs n-body";
    suite = "extended";
    block_dim = (threads, 1);
    dimensionality = Workload.D1;
    prepare;
  }

(* ------------------------------------------------------------------ *)
(* stencil3d: 7-point stencil on a 3D field, 4x8x8 threadblocks        *)
(* ------------------------------------------------------------------ *)

let stencil3d =
  let nx = 4 and ny = 8 and nz = 8 in
  let build () =
    let b = B.create ~name:"stencil3d" ~nparams:5 () in
    let open B.O in
    (* params: 0=in 1=out 2=W 3=H 4=D; grid is 1D over z-slabs of blocks *)
    let x = B.reg b in
    B.mov b x tid_x;
    let y = B.reg b in
    B.mov b y tid_y;
    let z = B.reg b in
    B.mad b z ctaid_x ntid_z tid_z;
    let clamp dst v hi =
      B.bin b Instr.Max_s dst v (i 0);
      B.bin b Instr.Min_s dst (r dst) hi
    in
    let wm1 = B.reg b in
    B.sub b wm1 (p 2) (i 1);
    let hm1 = B.reg b in
    B.sub b hm1 (p 3) (i 1);
    let dm1 = B.reg b in
    B.sub b dm1 (p 4) (i 1);
    let addr dst xx yy zz =
      (* ((z*H + y)*W + x)*4 + in *)
      let t1 = B.reg b in
      B.mad b t1 zz (p 3) yy;
      B.mad b t1 (r t1) (p 2) xx;
      B.shl b dst (r t1) (i 2);
      B.add b dst (r dst) (p 0)
    in
    let load_at dst xx yy zz =
      let a = B.reg b in
      addr a xx yy zz;
      B.ld b Instr.Global dst (r a) ()
    in
    let c = B.reg b in
    load_at c (r x) (r y) (r z);
    let sum = B.reg b in
    B.fmul b sum (r c) (f (-6.0));
    let neighbor dx dy dz =
      let xx = B.reg b and yy = B.reg b and zz = B.reg b in
      B.add b xx (r x) (i dx);
      clamp xx (r xx) (r wm1);
      B.add b yy (r y) (i dy);
      clamp yy (r yy) (r hm1);
      B.add b zz (r z) (i dz);
      clamp zz (r zz) (r dm1);
      let v = B.reg b in
      load_at v (r xx) (r yy) (r zz);
      B.fadd b sum (r sum) (r v)
    in
    neighbor (-1) 0 0;
    neighbor 1 0 0;
    neighbor 0 (-1) 0;
    neighbor 0 1 0;
    neighbor 0 0 (-1);
    neighbor 0 0 1;
    let out = B.reg b in
    B.fma b out (r sum) (f 0.1) (r c);
    let oa = B.reg b in
    addr oa (r x) (r y) (r z);
    B.sub b oa (r oa) (p 0);
    B.add b oa (r oa) (p 1);
    B.st b Instr.Global (r oa) (r out);
    B.exit_ b;
    B.finish b
  in
  let prepare ~scale =
    let w = nx and h = ny and d = nz * 4 * scale in
    let kernel = build () in
    let mem = M.create () in
    let rng = Util.Rng.create 239 in
    let field = Util.Rng.f32_array rng (w * h * d) 4.0 in
    let i_base = M.alloc mem (4 * w * h * d) in
    let o_base = M.alloc mem (4 * w * h * d) in
    M.write_f32s mem i_base field;
    let launch =
      Kernel.launch kernel
        ~grid:(Kernel.dim3 (d / nz))
        ~block:(Kernel.dim3 nx ~y:ny ~z:nz)
        ~params:[| i_base; o_base; w; h; d |]
    in
    let at xx yy zz =
      let xx = max 0 (min (w - 1) xx)
      and yy = max 0 (min (h - 1) yy)
      and zz = max 0 (min (d - 1) zz) in
      field.((((zz * h) + yy) * w) + xx)
    in
    let verify mem' =
      let expected =
        Array.init (w * h * d) (fun idx ->
            let x = idx mod w in
            let y = idx / w mod h in
            let z = idx / (w * h) in
            let c = at x y z in
            let sum = r32 (c *. -6.0) in
            let sum = r32 (sum +. at (x - 1) y z) in
            let sum = r32 (sum +. at (x + 1) y z) in
            let sum = r32 (sum +. at x (y - 1) z) in
            let sum = r32 (sum +. at x (y + 1) z) in
            let sum = r32 (sum +. at x y (z - 1)) in
            let sum = r32 (sum +. at x y (z + 1)) in
            r32 (r32 (sum *. 0.1) +. c))
      in
      Workload.check_f32 ~tol:1e-3 ~name:"ST3D" ~expected
        (M.read_f32s mem' o_base (w * h * d))
    in
    { Workload.mem; launch; verify }
  in
  {
    Workload.abbr = "ST3D";
    full_name = "7-point 3D stencil";
    suite = "extended";
    block_dim = (nx, ny);
    dimensionality = Workload.D2;
    prepare;
  }

let all = [ reduction; transpose; histogram; spmv; nbody; stencil3d ]
