(* Tests for the trace library: trace recording and its packed encoding,
   the trace cache round trip, and the redundancy limit studies (Figure
   1/2 machinery). *)

open Darsie_isa
open Darsie_trace

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

let parse = Parser.parse_kernel

(* ------------------------------------------------------------------ *)
(* Pattern tests                                                       *)
(* ------------------------------------------------------------------ *)

let test_vector_patterns () =
  check_bool "uniform" true (Limit_study.vector_uniform [| 5; 5; 5; 5 |]);
  check_bool "not uniform" false (Limit_study.vector_uniform [| 5; 5; 6; 5 |]);
  check_bool "affine stride 4" true
    (Limit_study.vector_affine [| 0; 4; 8; 12 |]);
  check_bool "uniform is affine" true (Limit_study.vector_affine [| 3; 3; 3; 3 |]);
  check_bool "periodic affine (2D tid.x layout)" true
    (Limit_study.vector_affine [| 0; 1; 2; 3; 0; 1; 2; 3 |]);
  check_bool "periodic affine stride 4" true
    (Limit_study.vector_affine [| 10; 14; 10; 14 |]);
  check_bool "unstructured" false
    (Limit_study.vector_affine [| 7; 3; 0; 90 |]);
  check_bool "broken period" false
    (Limit_study.vector_affine [| 0; 1; 2; 3; 0; 1; 2; 5 |]);
  (* wrap-around strides still count (mod 2^32 arithmetic) *)
  check_bool "wrapping affine" true
    (Limit_study.vector_affine
       [| 0xFFFFFFFE; 0xFFFFFFFF; 0; 1 |])

let affine_gen =
  QCheck.Gen.(
    map3
      (fun base stride n ->
        (abs base land 0xFFFFFF, abs stride land 0xFFFF, (abs n mod 4) + 1))
      int int int)

let qcheck_affine =
  QCheck.Test.make ~name:"generated affine vectors are affine" ~count:300
    (QCheck.make affine_gen) (fun (base, stride, log_period) ->
      let period = 1 lsl log_period in
      let n = 32 in
      let v =
        Array.init n (fun i -> Value.add base (Value.mul stride (i mod period)))
      in
      Limit_study.vector_affine v)

(* ------------------------------------------------------------------ *)
(* Record generation                                                   *)
(* ------------------------------------------------------------------ *)

let loop_kernel =
  parse
    {|
.kernel t
.params 1
  mov.u32 %r0, 0;
top:
  add.u32 %r0, %r0, 1;
  setp.lt.s32 %p0, %r0, 3;
@%p0 bra top;
  st.global.u32 [%param0], %r0;
  exit;
|}

let test_record_generate () =
  let mem = Darsie_emu.Memory.create () in
  let dst = Darsie_emu.Memory.alloc mem 4 in
  let launch =
    Kernel.launch loop_kernel ~grid:(Kernel.dim3 2) ~block:(Kernel.dim3 64)
      ~params:[| dst |]
  in
  let t = Record.generate mem launch in
  check_int "tbs" 2 (Record.num_tbs t);
  check_int "warps per tb" 2 (Record.warps_per_tb t);
  (* 1 mov + 3*(add,setp,bra) + st + exit = 12 per warp *)
  check_int "ops per warp" 12 (Record.length t.Record.tbs.(0).(0));
  check_int "total" (12 * 4) (Record.total_ops t);
  (* occurrence numbers count loop iterations *)
  let w = t.Record.tbs.(1).(1) in
  let ops = List.init (Record.length w) Fun.id in
  let adds = List.filter (fun i -> Record.idx w i = 1) ops in
  Alcotest.(check (list int))
    "occurrences" [ 0; 1; 2 ]
    (List.map (Record.occ w) adds);
  (* memory op carries addresses *)
  let st = List.find (fun i -> Record.idx w i = 4) ops in
  check_int "store addresses" 32 (Record.naddrs w st);
  check_int "full mask recorded" ((1 lsl 32) - 1) (Record.active w st)

(* Every op of every warp, decoded through the accessors. *)
let decode (w : Record.warp) =
  List.init (Record.length w) (fun i ->
      ( Record.idx w i,
        Record.occ w i,
        Record.active w i,
        Array.init (Record.naddrs w i) (Record.addr w i) ))

(* The emulator's own exec_record stream of one launch, per warp, in
   order. *)
let exec_stream (p : Darsie_workloads.Workload.prepared) =
  let launch = p.Darsie_workloads.Workload.launch in
  let per =
    Array.init (Kernel.num_blocks launch) (fun _ ->
        Array.make (Kernel.warps_per_block launch ~warp_size:32) [])
  in
  let on_exec (r : Darsie_emu.Interp.exec_record) =
    let open Darsie_emu.Interp in
    per.(r.tb).(r.warp) <-
      (r.inst_index, r.occ, r.active, Array.sub r.addrs 0 r.naddrs)
      :: per.(r.tb).(r.warp)
  in
  ignore
    (Darsie_emu.Interp.run ~on_exec p.Darsie_workloads.Workload.mem launch);
  Array.map (Array.map List.rev) per

(* Loads near the top of the 32-bit space with all 32 lanes active: the
   mask's top bit and addresses >= 2^31 must decode unsigned. Loads of
   unbacked memory read zero, so nothing is allocated up there. *)
let high_kernel () =
  let k =
    parse
      {|
.kernel hi
.params 1
  mul.lo.u32 %r1, %tid.x, 4;
  add.u32 %r2, %r1, %param0;
  ld.global.u32 %r3, [%r2+0];
  setp.lt.u32 %p0, %tid.x, 7;
@%p0 ld.global.u32 %r4, [%r2+0];
  exit;
|}
  in
  {
    Darsie_workloads.Workload.mem = Darsie_emu.Memory.create ();
    launch =
      Kernel.launch k ~grid:(Kernel.dim3 2) ~block:(Kernel.dim3 64)
        ~params:[| 0xFFFF_FF00 |];
    verify = (fun _ -> Ok ());
  }

(* A fixed set of generated kernels (both campaign seeds' first
   kernels) plus the hand kernel above. *)
let roundtrip_subjects () =
  let generated =
    List.concat_map
      (fun seed ->
        List.filter_map
          (fun index ->
            let _, plan = Darsie_fuzz.Gen.generate ~seed ~index in
            match Darsie_fuzz.Plan.build plan with
            | Ok case ->
              Some
                ( Printf.sprintf "gen %d/%d" seed index,
                  fun () -> Darsie_fuzz.Plan.prepared case )
            | Error _ -> None)
          (List.init 12 Fun.id))
      [ 0; 1 ]
  in
  ("high addresses", high_kernel) :: generated

let test_record_roundtrip () =
  List.iter
    (fun (name, fresh) ->
      let expected = exec_stream (fresh ()) in
      let p = fresh () in
      let t =
        Record.generate p.Darsie_workloads.Workload.mem
          p.Darsie_workloads.Workload.launch
      in
      check_int (name ^ ": tbs") (Array.length expected) (Record.num_tbs t);
      Array.iteri
        (fun tb warps ->
          Array.iteri
            (fun wi ops ->
              check_bool
                (Printf.sprintf "%s: tb %d warp %d decodes to the exec stream"
                   name tb wi)
                true
                (decode t.Record.tbs.(tb).(wi) = ops))
            warps)
        expected)
    (roundtrip_subjects ());
  let p = high_kernel () in
  let t =
    Record.generate p.Darsie_workloads.Workload.mem
      p.Darsie_workloads.Workload.launch
  in
  let w = t.Record.tbs.(1).(1) in
  check_int "lane 31 active decodes unsigned" 0xFFFF_FFFF (Record.active w 2);
  check_int "address >= 2^31 decodes unsigned" (0xFFFF_FF00 + (4 * 63))
    (Record.addr w 2 31);
  check_int "guarded load: lanes 0-6 of warp 0 touch memory" 7
    (Record.naddrs t.Record.tbs.(1).(0) 4);
  check_int "guarded load: no lane of warp 1 does" 0 (Record.naddrs w 4)

(* Generating MM's scale-1 trace allocates at most 40 minor words per
   op: the emulator's step allocates nothing per lane, and [push] packs
   each op straight from the emulator's address buffer. *)
let test_generate_allocation () =
  let p =
    Darsie_workloads.Matmul.workload.Darsie_workloads.Workload.prepare ~scale:1
  in
  let before = Gc.minor_words () in
  let t =
    Record.generate p.Darsie_workloads.Workload.mem
      p.Darsie_workloads.Workload.launch
  in
  let per_op = (Gc.minor_words () -. before) /. float_of_int (Record.total_ops t) in
  check_bool
    (Printf.sprintf "%.1f minor words per op (bound 40)" per_op)
    true (per_op <= 40.0)

(* The emulator's output, pinned: an MD5 over every warp's packed [ops]
   and [addrs] buffers plus the emulator's stats, for each Table-1 app
   at scale 1, and one over the seed-0 generated kernels 0-49 that
   build (atomics, predication, divergence, float ops and special
   registers). The digests were recorded before the emulator's step was
   rewritten without allocation; any change to a trace moves them. *)
let trace_digest (t : Record.t) =
  let b = Buffer.create 4096 in
  Array.iter
    (Array.iter (fun (w : Record.warp) ->
         Buffer.add_bytes b w.Record.ops;
         Buffer.add_bytes b w.Record.addrs))
    t.Record.tbs;
  let s = t.Record.emu_stats in
  Buffer.add_string b
    (Printf.sprintf "%d/%d/%d" s.Darsie_emu.Interp.warp_insts
       s.Darsie_emu.Interp.thread_insts s.Darsie_emu.Interp.max_stack_depth);
  Digest.to_hex (Digest.string (Buffer.contents b))

let pinned_traces =
  [
    ("BIN", "258d447a1c1066997d0e177da424177e");
    ("PT", "7fb118d5a5e5e5883aec7a232e6b9984");
    ("FW", "b034f6215ec7db1cda33d52d758e0bf2");
    ("SR1", "dadc50b3609fb11531e038bd29b2c581");
    ("LIB", "6f7f27138436b67196d7a1d4832857f3");
    ("IMNLM", "34ba5d0e6320289b560fd78c04552350");
    ("BP", "c8ca20956e79e2ea1b36de8d5ea1ca2e");
    ("DCT8x8", "0e7c1979acd1665623a19f76868d1bbd");
    ("FWS", "b4b1a631718d25bac8cba4c82fdff0fe");
    ("HS", "577e32cb4d4ed7eb97994b658a67f382");
    ("CP", "4d5b09c43439c64c8ab9e53c8d0d584b");
    ("CONVTEX", "13ea6c7fc46cb5dc2ccbe02474ad14d5");
    ("MM", "c601aecc75ac968a8c170c81a965b1a7");
  ]

let pinned_generated = "fb8d78d43bf32fe8901ef35e915f524c"

let test_trace_pin () =
  let apps =
    List.map
      (fun (w : Darsie_workloads.Workload.t) ->
        let p = w.Darsie_workloads.Workload.prepare ~scale:1 in
        ( w.Darsie_workloads.Workload.abbr,
          trace_digest
            (Record.generate p.Darsie_workloads.Workload.mem
               p.Darsie_workloads.Workload.launch) ))
      Darsie_workloads.Registry.all
  in
  Alcotest.(check (list (pair string string)))
    "Table-1 traces at scale 1" pinned_traces apps;
  let generated =
    List.filter_map
      (fun index ->
        let _, plan = Darsie_fuzz.Gen.generate ~seed:0 ~index in
        match Darsie_fuzz.Plan.build plan with
        | Ok case ->
          let p = Darsie_fuzz.Plan.prepared case in
          Some
            (trace_digest
               (Record.generate p.Darsie_workloads.Workload.mem
                  p.Darsie_workloads.Workload.launch))
        | Error _ -> None)
      (List.init 50 Fun.id)
  in
  Alcotest.(check string)
    (Printf.sprintf "%d generated kernels' traces" (List.length generated))
    pinned_generated
    (Digest.to_hex (Digest.string (String.concat "," generated)))

let test_record_rejects () =
  Alcotest.check_raises "warp size above 32"
    (Invalid_argument "Record.generate: warp size 64 exceeds the 32-bit mask")
    (fun () ->
      let p = high_kernel () in
      ignore
        (Record.generate ~warp_size:64 p.Darsie_workloads.Workload.mem
           p.Darsie_workloads.Workload.launch));
  Alcotest.check_raises "address above 2^32"
    (Invalid_argument "Record: address 4294967296 does not fit in 32 bits")
    (fun () -> ignore (Record.warp_of_ops [| (0, 0, 1, [| 1 lsl 32 |]) |]));
  Alcotest.check_raises "negative address"
    (Invalid_argument "Record: address -4 does not fit in 32 bits")
    (fun () -> ignore (Record.warp_of_ops [| (0, 0, 1, [| -4 |]) |]))

let test_cache_store_find () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "darsie-trace-test-%d" (Unix.getpid ()))
  in
  let cleanup () =
    if Sys.file_exists dir then begin
      Array.iter
        (fun e -> Sys.remove (Filename.concat dir e))
        (Sys.readdir dir);
      Sys.rmdir dir
    end
  in
  cleanup ();
  Fun.protect ~finally:cleanup (fun () ->
      let cache = Cache.create ~dir () in
      List.iter
        (fun (name, fresh) ->
          let p = fresh () in
          let launch = p.Darsie_workloads.Workload.launch in
          let t = Record.generate p.Darsie_workloads.Workload.mem launch in
          let key = Cache.key ~name ~scale:1 launch in
          Cache.store cache ~key t;
          match Cache.find cache ~key with
          | Some t' ->
            check_bool (name ^ ": find returns the stored trace") true (t' = t)
          | None -> Alcotest.fail (name ^ ": stored trace not found"))
        (List.filteri (fun i _ -> i < 4) (roundtrip_subjects ()));
      check_int "every find hit" 4 (Cache.hits cache))

(* The packed layout's promise, independent of the host: MM@1's trace
   costs 16 B per op plus 4 B per address, and a small constant per warp
   for the record, the two buffer headers, their padding, the sentinel
   and the per-TB array slot. *)
let test_footprint () =
  let p =
    Darsie_workloads.Matmul.workload.Darsie_workloads.Workload.prepare ~scale:1
  in
  let t =
    Record.generate p.Darsie_workloads.Workload.mem
      p.Darsie_workloads.Workload.launch
  in
  let ops = Record.total_ops t and addrs = ref 0 and warps = ref 0 in
  Array.iter
    (Array.iter (fun w ->
         incr warps;
         for i = 0 to Record.length w - 1 do
           addrs := !addrs + Record.naddrs w i
         done))
    t.Record.tbs;
  let bytes =
    Obj.reachable_words (Obj.repr t.Record.tbs) * (Sys.word_size / 8)
  in
  let bound = (16 * ops) + (4 * !addrs) + (96 * !warps) in
  check_bool
    (Printf.sprintf "%d B for %d ops, %d addresses, %d warps (bound %d B)"
       bytes ops !addrs !warps bound)
    true (bytes <= bound)

(* ------------------------------------------------------------------ *)
(* Limit study on crafted kernels                                      *)
(* ------------------------------------------------------------------ *)

let measure ?(grid = Kernel.dim3 2) ?(block = Kernel.dim3 16 ~y:16) k params =
  let mem = Darsie_emu.Memory.create () in
  let params =
    Array.map
      (fun need ->
        if need then begin
          let base = Darsie_emu.Memory.alloc mem 65536 in
          (* patterned, non-affine data so loaded values are judged by
             their real structure *)
          Darsie_emu.Memory.write_i32s mem base
            (Array.init 16384 (fun i -> (i * 2654435761) land 0xFFFFF));
          base
        end
        else 0)
      params
  in
  let launch = Kernel.launch k ~grid ~block ~params in
  (Limit_study.measure mem launch, params)

let test_limit_uniform_kernel () =
  (* Everything derived from ctaid: fully TB- (but not grid-) redundant. *)
  let k =
    parse
      {|
.kernel u
.params 1
  mov.u32 %r0, %ctaid.x;
  add.u32 %r1, %r0, 10;
  mul.lo.u32 %r2, %r1, 3;
  st.global.u32 [%param0], %r2;
  exit;
|}
  in
  let r, _ = measure k [| true |] in
  (* eligible = mov+add+mul+st = 4 of 5 per warp; all TB-redundant
     uniform *)
  check_int "tb_red counts eligible instances" r.Limit_study.tb_red
    r.Limit_study.tb_uniform;
  check_bool "everything eligible is TB-redundant" true
    (r.Limit_study.tb_red = r.Limit_study.eligible);
  (* ctaid differs across blocks: only the exit-independent ops with
     constant operands are grid-redundant; mov reads ctaid (differs), so
     grid_red < tb_red *)
  check_bool "grid strictly less" true
    (r.Limit_study.grid_red < r.Limit_study.tb_red)

let test_limit_grid_redundant () =
  let k =
    parse
      {|
.kernel g
.params 1
  mov.u32 %r0, 42;
  add.u32 %r1, %r0, %param0;
  exit;
|}
  in
  let r, _ = measure k [| false |] in
  check_bool "constant ops grid-redundant" true
    (r.Limit_study.grid_red = r.Limit_study.eligible)

let test_limit_2d_vs_1d () =
  (* The Figure 3 kernel: affine-redundant in 2D, non-redundant in 1D. *)
  let k =
    parse
      {|
.kernel f3
.params 1
  mul.lo.u32 %r1, %tid.x, 4;
  add.u32 %r2, %r1, %param0;
  ld.global.u32 %r3, [%r2+0];
  exit;
|}
  in
  let r2d, _ = measure ~block:(Kernel.dim3 16 ~y:16) k [| true |] in
  check_bool "2D: all eligible TB-redundant" true
    (r2d.Limit_study.tb_red = r2d.Limit_study.eligible);
  check_bool "2D: affine present" true (r2d.Limit_study.tb_affine > 0);
  check_bool "2D: load is unstructured" true
    (r2d.Limit_study.tb_unstructured > 0);
  let r1d, _ = measure ~block:(Kernel.dim3 256) k [| true |] in
  check_int "1D: nothing TB-redundant" 0 r1d.Limit_study.tb_red

let test_limit_divergence_not_redundant () =
  (* Same computation under a partial mask: counted non-redundant. *)
  let k =
    parse
      {|
.kernel d
  setp.lt.s32 %p0, %tid.y, 8;
@!%p0 bra skip;
  mov.u32 %r0, %ctaid.x;
  add.u32 %r1, %r0, 1;
skip:
  exit;
|}
  in
  (* 16x16 block: tid.y < 8 is a *warp-level* split (full masks), so the
     mov/add remain TB-non-redundant only because not every warp runs
     them. *)
  let r, _ = measure k [| |] in
  check_int "guarded-path ops not TB-redundant" 0 r.Limit_study.tb_red

let test_limit_warp_level () =
  (* tid.y is warp-uniform in a 16x16 block only when warps span 2 rows -
     it is NOT: two y values per warp. tid.x patterns are shared. *)
  let k =
    parse
      {|
.kernel w
  mov.u32 %r0, %ctaid.y;
  mov.u32 %r1, %tid.x;
  exit;
|}
  in
  let r, _ = measure k [||] in
  (* per warp: mov ctaid.y is scalar; mov tid.x is not *)
  check_bool "warp_red counts scalar instances" true
    (r.Limit_study.warp_red * 2 = r.Limit_study.tb_red)

let test_limit_load_value_dependence () =
  (* Two blocks read the same uniform address but a store in between does
     not occur; loads are TB-redundant; values differ per-TB only via
     ctaid — here address is constant so grid-redundant too. *)
  let k =
    parse
      {|
.kernel lv
.params 1
  ld.global.u32 %r0, [%param0+0];
  add.u32 %r1, %r0, 1;
  exit;
|}
  in
  let r, _ = measure k [| true |] in
  check_bool "uniform load redundant at grid level" true
    (r.Limit_study.grid_red = r.Limit_study.eligible);
  check_bool "classified uniform" true
    (r.Limit_study.tb_uniform = r.Limit_study.tb_red)

let test_limit_atomics_excluded () =
  let k =
    parse
      {|
.kernel a
.params 1
  atom.global.add.u32 %r0, [%param0], 1;
  exit;
|}
  in
  let r, _ = measure k [| true |] in
  check_int "atomics never redundant" 0 r.Limit_study.tb_red;
  check_int "atomics not eligible" 0 r.Limit_study.eligible

let () =
  Alcotest.run "darsie_trace"
    [
      ( "patterns",
        [
          Alcotest.test_case "classification" `Quick test_vector_patterns;
          QCheck_alcotest.to_alcotest qcheck_affine;
        ] );
      ( "record",
        [
          Alcotest.test_case "generation" `Quick test_record_generate;
          Alcotest.test_case "round trip" `Quick test_record_roundtrip;
          Alcotest.test_case "out-of-range fields" `Quick test_record_rejects;
          Alcotest.test_case "cache store then find" `Quick
            test_cache_store_find;
          Alcotest.test_case "footprint" `Quick test_footprint;
          Alcotest.test_case "pinned traces" `Quick test_trace_pin;
          Alcotest.test_case "allocation bound" `Quick test_generate_allocation;
        ] );
      ( "limit-study",
        [
          Alcotest.test_case "uniform kernel" `Quick test_limit_uniform_kernel;
          Alcotest.test_case "grid redundant" `Quick test_limit_grid_redundant;
          Alcotest.test_case "2d vs 1d" `Quick test_limit_2d_vs_1d;
          Alcotest.test_case "divergence" `Quick
            test_limit_divergence_not_redundant;
          Alcotest.test_case "warp level" `Quick test_limit_warp_level;
          Alcotest.test_case "uniform loads" `Quick
            test_limit_load_value_dependence;
          Alcotest.test_case "atomics" `Quick test_limit_atomics_excluded;
        ] );
    ]
