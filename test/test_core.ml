(* Tests for DARSIE itself: the majority-path mask, the PC skip table with
   register versioning, and the fetch-stage skip engine end to end. *)

open Darsie_isa
open Darsie_timing
open Darsie_core

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

let parse = Parser.parse_kernel

(* ------------------------------------------------------------------ *)
(* Majority mask                                                       *)
(* ------------------------------------------------------------------ *)

let test_majority () =
  let m = Majority.create ~warps:8 in
  check_int "all on path" 0xFF (Majority.mask m);
  check_bool "warp 3 on path" true (Majority.on_path m 3);
  Majority.drop m 3;
  check_bool "warp 3 off path" false (Majority.on_path m 3);
  check_int "mask updated" 0xF7 (Majority.mask m);
  check_bool "covers without 3" true (Majority.covers m 0xF7);
  check_bool "does not cover missing warp" false (Majority.covers m 0xF3);
  Majority.reset m;
  check_int "barrier resets" 0xFF (Majority.mask m)

(* ------------------------------------------------------------------ *)
(* Skip table                                                          *)
(* ------------------------------------------------------------------ *)

let test_skip_table_lifecycle () =
  let t = Skip_table.create ~max_entries:8 ~rename_regs:4 in
  check_int "freelist full" 4 (Skip_table.free_regs t);
  Skip_table.allocate t ~pc:10 ~occ:0 ~leader:2 ~mem_dep:false;
  check_int "one reg consumed" 3 (Skip_table.free_regs t);
  check_int "one entry" 1 (Skip_table.live_entries t);
  (match Skip_table.find t ~pc:10 ~occ:0 with
  | Some i ->
    check_int "leader recorded" 2 i.Skip_table.leader;
    check_bool "leader already passed" true (i.Skip_table.done_mask = 0b100);
    check_bool "not written back yet" false i.Skip_table.leader_wb
  | None -> Alcotest.fail "instance missing");
  (* followers pass; freeing waits for LeaderWB *)
  Skip_table.mark_passed t ~pc:10 ~occ:0 ~warp:0 ~majority:0b111;
  Skip_table.mark_passed t ~pc:10 ~occ:0 ~warp:1 ~majority:0b111;
  check_int "still live without WB" 1 (Skip_table.live_instances t);
  Skip_table.mark_writeback t ~pc:10 ~occ:0 ~majority:0b111;
  check_int "freed after WB + all passed" 0 (Skip_table.live_instances t);
  check_int "reg returned" 4 (Skip_table.free_regs t)

let test_skip_table_versions () =
  let t = Skip_table.create ~max_entries:8 ~rename_regs:4 in
  (* two loop iterations of the same PC live simultaneously *)
  Skip_table.allocate t ~pc:5 ~occ:0 ~leader:0 ~mem_dep:false;
  Skip_table.allocate t ~pc:5 ~occ:1 ~leader:0 ~mem_dep:false;
  check_int "one entry, two versions" 1 (Skip_table.live_entries t);
  check_int "two instances" 2 (Skip_table.live_instances t);
  check_bool "distinct instances" true
    (Skip_table.find t ~pc:5 ~occ:0 != Skip_table.find t ~pc:5 ~occ:1);
  Alcotest.check_raises "duplicate version rejected"
    (Invalid_argument "Skip_table.allocate: instance already live") (fun () ->
      Skip_table.allocate t ~pc:5 ~occ:0 ~leader:1 ~mem_dep:false)

let test_skip_table_capacity () =
  let t = Skip_table.create ~max_entries:2 ~rename_regs:8 in
  Skip_table.allocate t ~pc:0 ~occ:0 ~leader:0 ~mem_dep:false;
  Skip_table.allocate t ~pc:1 ~occ:0 ~leader:0 ~mem_dep:false;
  check_bool "third PC refused" false (Skip_table.can_allocate t ~pc:2);
  check_bool "existing PC still ok" true (Skip_table.can_allocate t ~pc:1);
  let t2 = Skip_table.create ~max_entries:8 ~rename_regs:1 in
  Skip_table.allocate t2 ~pc:0 ~occ:0 ~leader:0 ~mem_dep:false;
  check_bool "freelist exhausted" false (Skip_table.can_allocate t2 ~pc:1);
  Alcotest.check_raises "allocate past capacity"
    (Invalid_argument "Skip_table.allocate: table or freelist exhausted")
    (fun () -> Skip_table.allocate t2 ~pc:1 ~occ:0 ~leader:0 ~mem_dep:false)

let test_skip_table_flush_loads () =
  let t = Skip_table.create ~max_entries:8 ~rename_regs:8 in
  Skip_table.allocate t ~pc:0 ~occ:0 ~leader:0 ~mem_dep:true;
  Skip_table.allocate t ~pc:1 ~occ:0 ~leader:0 ~mem_dep:false;
  Skip_table.flush_loads t ~kind:`Store;
  check_bool "load entry gone" true (Skip_table.find t ~pc:0 ~occ:0 = None);
  check_bool "alu entry kept" true (Skip_table.find t ~pc:1 ~occ:0 <> None);
  check_int "load's register returned" 7 (Skip_table.free_regs t);
  Skip_table.flush_all t;
  check_int "flush_all empties" 0 (Skip_table.live_entries t);
  check_int "flush_all returns regs" 8 (Skip_table.free_regs t)

let test_skip_table_majority_shrink () =
  let t = Skip_table.create ~max_entries:8 ~rename_regs:8 in
  Skip_table.allocate t ~pc:0 ~occ:0 ~leader:0 ~mem_dep:false;
  Skip_table.mark_writeback t ~pc:0 ~occ:0 ~majority:0b11;
  (* warp 1 never passes, but it leaves the majority *)
  check_int "still held for warp 1" 1 (Skip_table.live_instances t);
  Skip_table.recheck t ~majority:0b01;
  check_int "freed once majority shrinks" 0 (Skip_table.live_instances t)

(* qcheck: the freelist invariant holds under random operation sequences *)
let qcheck_skip_table =
  let op_gen =
    QCheck.Gen.(
      map3
        (fun a b c -> (a mod 6, b mod 4, c mod 3))
        (int_bound 1000) (int_bound 1000) (int_bound 1000))
  in
  QCheck.Test.make ~name:"skip-table freelist conservation" ~count:300
    (QCheck.make (QCheck.Gen.list_size (QCheck.Gen.return 40) op_gen))
    (fun ops ->
      let t = Skip_table.create ~max_entries:4 ~rename_regs:6 in
      List.iter
        (fun (kind, pc, occ) ->
          match kind with
          | 0 ->
            if
              Skip_table.can_allocate t ~pc
              && Skip_table.find t ~pc ~occ = None
            then Skip_table.allocate t ~pc ~occ ~leader:0 ~mem_dep:(pc = 0)
          | 1 -> Skip_table.mark_writeback t ~pc ~occ ~majority:0b11
          | 2 -> Skip_table.mark_passed t ~pc ~occ ~warp:1 ~majority:0b11
          | 3 -> Skip_table.flush_loads t ~kind:`Store
          | 4 -> Skip_table.recheck t ~majority:0b01
          | _ -> Skip_table.flush_all t)
        ops;
      Skip_table.free_regs t + Skip_table.live_instances t = 6
      && Skip_table.free_regs t >= 0)

(* ------------------------------------------------------------------ *)
(* DARSIE engine end to end                                            *)
(* ------------------------------------------------------------------ *)

let run_darsie ?(options = Darsie_engine.default_options)
    ?(cfg = Config.default) ?(grid = Kernel.dim3 2)
    ?(block = Kernel.dim3 16 ~y:16) ktext params =
  let k = parse ktext in
  let mem = Darsie_emu.Memory.create () in
  let params =
    Array.map
      (fun need ->
        if need then begin
          let b = Darsie_emu.Memory.alloc mem 65536 in
          Darsie_emu.Memory.write_i32s mem b (Array.init 16384 (fun i -> i));
          b
        end
        else 0)
      params
  in
  let launch = Kernel.launch k ~grid ~block ~params in
  let kinfo = Kinfo.make ~warp_size:32 launch in
  let trace = Darsie_trace.Record.generate mem launch in
  let base = Gpu.run_exn ~cfg Engine.base_factory kinfo trace in
  let darsie = Gpu.run_exn ~cfg (Darsie_engine.factory ~options ()) kinfo trace in
  (base, darsie)

let redundant_kernel =
  {|
.kernel red
.params 2
  mul.lo.u32 %r0, %tid.x, 4;
  add.u32 %r1, %r0, %param0;
  ld.global.u32 %r2, [%r1+0];
  add.u32 %r3, %r2, 7;
  mad.lo.u32 %r4, %tid.y, %ntid.x, %tid.x;
  shl.b32 %r4, %r4, 2;
  add.u32 %r4, %r4, %param1;
  st.global.u32 [%r4+0], %r3;
  exit;
|}

let test_darsie_skips_2d () =
  let base, darsie = run_darsie redundant_kernel [| true; true |] in
  (* 4 skippable instructions (mul, add, ld, add) x 8 warps/TB: 7 of 8
     warps skip each; 2 TBs *)
  check_int "skipped = followers x redundant" (4 * 7 * 2)
    darsie.Gpu.stats.Stats.skipped_prefetch;
  check_int "issued + skipped conserve the stream"
    base.Gpu.stats.Stats.issued
    (darsie.Gpu.stats.Stats.issued + darsie.Gpu.stats.Stats.skipped_prefetch);
  (* On a kernel this tiny the follower LeaderWB waits can outweigh the
     fetch savings; only require that the overhead stays bounded. Real
     speedups are asserted on the full workloads in test_workloads. *)
  check_bool "darsie overhead bounded" true
    (darsie.Gpu.cycles <= base.Gpu.cycles * 13 / 10)

let test_darsie_no_skips_1d () =
  let _, darsie =
    run_darsie ~block:(Kernel.dim3 256) redundant_kernel [| true; true |]
  in
  (* only the (nonexistent) uniform ops could be skipped: the tid.x chain
     demotes to vector in 1D *)
  check_int "nothing skipped in 1D" 0 darsie.Gpu.stats.Stats.skipped_prefetch

let test_darsie_uniform_skipped_in_1d () =
  let k =
    {|
.kernel uni
.params 2
  mov.u32 %r0, %ctaid.x;
  mul.lo.u32 %r1, %r0, 5;
  add.u32 %r2, %r1, %param0;
  mad.lo.u32 %r3, %ctaid.x, %ntid.x, %tid.x;
  shl.b32 %r3, %r3, 2;
  add.u32 %r3, %r3, %param1;
  st.global.u32 [%r3+0], %r2;
  exit;
|}
  in
  let _, darsie = run_darsie ~block:(Kernel.dim3 256) k [| true; true |] in
  (* uniform redundancy survives 1D: mov, mul, add x 7 followers x 2 TBs *)
  check_int "uniform ops skipped" (3 * 7 * 2)
    darsie.Gpu.stats.Stats.skipped_prefetch

let test_darsie_store_flush () =
  (* a redundant load in a loop after a store: entries flushed each
     iteration, so DARSIE-IGNORE-STORE skips strictly more *)
  let k =
    {|
.kernel sf
.params 3
  mul.lo.u32 %r0, %tid.x, 4;
  add.u32 %r1, %r0, %param0;
  mad.lo.u32 %r5, %tid.y, %ntid.x, %tid.x;
  shl.b32 %r5, %r5, 2;
  add.u32 %r5, %r5, %param1;
  mov.u32 %r4, 0;
top:
  ld.global.u32 %r2, [%r1+0];
  st.global.u32 [%r5+0], %r2;
  add.u32 %r4, %r4, 1;
  setp.lt.s32 %p0, %r4, 8;
@%p0 bra top;
  exit;
|}
  in
  let _, strict = run_darsie k [| true; true; false |] in
  let _, loose =
    run_darsie
      ~options:{ Darsie_engine.ignore_store = true; no_cf_sync = false }
      k [| true; true; false |]
  in
  check_bool "stores curtail load skipping" true
    (strict.Gpu.stats.Stats.skipped_prefetch
    < loose.Gpu.stats.Stats.skipped_prefetch)

let test_darsie_divergent_warp_excluded () =
  (* warps whose threads diverge (partial mask) leave the majority path *)
  let k =
    {|
.kernel div
.params 1
  and.b32 %r4, %tid.x, 1;
  setp.eq.s32 %p0, %r4, 0;
@!%p0 bra skip;
  mov.u32 %r1, 1;
skip:
  mul.lo.u32 %r0, %tid.x, 4;
  add.u32 %r2, %r0, %param0;
  ld.global.u32 %r3, [%r2+0];
  exit;
|}
  in
  let _, darsie = run_darsie k [| true |] in
  (* The pre-branch `and` is skipped normally (7 followers x 2 TBs = 14);
     then every warp splits on odd/even lanes, leaves the majority path,
     and the post-reconvergence CR chain (mul/add/ld) is NOT skipped even
     though its mask is full again. *)
  check_int "only the pre-divergence op is skipped" 14
    darsie.Gpu.stats.Stats.skipped_prefetch

let test_darsie_loop_versions () =
  (* redundant instruction inside a loop: one version per iteration, all
     skipped by followers *)
  let k =
    {|
.kernel loop
.params 2
  mov.u32 %r0, 0;
  mov.u32 %r3, 0;
top:
  mul.lo.u32 %r1, %tid.x, 4;
  add.u32 %r2, %r1, %param0;
  add.u32 %r3, %r3, %r2;
  add.u32 %r0, %r0, 1;
  setp.lt.s32 %p0, %r0, 5;
@%p0 bra top;
  exit;
|}
  in
  let base, darsie = run_darsie k [| true; false |] in
  (* skippable per warp-trace: mov r0, mov r3 are uniform (2); per
     iteration mul+add r2 are CR (2x5); the loop bookkeeping add r0 and
     the accumulator add r3 mix CR+uniform... count conservation instead *)
  check_int "stream conserved" base.Gpu.stats.Stats.issued
    (darsie.Gpu.stats.Stats.issued + darsie.Gpu.stats.Stats.skipped_prefetch);
  check_bool "loop versions skipped" true
    (darsie.Gpu.stats.Stats.skipped_prefetch >= 2 * 5 * 7 * 2)

let test_darsie_no_cf_sync_skips_at_least_as_much () =
  let base, strict = run_darsie redundant_kernel [| true; true |] in
  let _, ideal =
    run_darsie
      ~options:{ Darsie_engine.ignore_store = false; no_cf_sync = true }
      redundant_kernel [| true; true |]
  in
  ignore base;
  (* Leader election is greedy and online, so racing warps can shift which
     warp executes an instance; allow a tiny shortfall but require the
     idealization to stay within 5% of strict DARSIE's skip count. *)
  check_bool "idealized sync skips about as much" true
    (ideal.Gpu.stats.Stats.skipped_prefetch * 100
    >= strict.Gpu.stats.Stats.skipped_prefetch * 95);
  check_int "no stalls in idealized mode" 0
    ideal.Gpu.stats.Stats.darsie_sync_stalls

let test_darsie_counters () =
  let _, darsie = run_darsie redundant_kernel [| true; true |] in
  check_bool "probes recorded" true (darsie.Gpu.stats.Stats.skip_table_probes > 0);
  check_bool "renames recorded" true (darsie.Gpu.stats.Stats.rename_accesses > 0);
  check_bool "coalescer used" true (darsie.Gpu.stats.Stats.coalescer_probes > 0)

(* The DARSIE family's simulated counters on four Table-1 apps at scale 1:
   cycles, skipped_prefetch, darsie_sync_stalls, skip_table_probes and
   coalescer_probes. The skip phase's per-cycle TB visit order decides
   which TBs get the PC-coalescer ports, and a barrier's majority reset
   decides which warps rejoin the path; a change to either moves these
   numbers. The cycles equal perfbench/expected/matrix.txt. *)
let pinned_darsie_counters =
  let module S = Darsie_harness.Suite in
  [
    ( "FWS",
      [
        (S.Darsie, [ 671; 896; 17886; 2735; 735 ]);
        (S.Darsie_ignore_store, [ 671; 896; 17886; 2735; 735 ]);
        (S.Darsie_no_cf_sync, [ 658; 896; 0; 4040; 866 ]);
      ] );
    ( "HS",
      [
        (S.Darsie, [ 1235; 1904; 34496; 6322; 2845 ]);
        (S.Darsie_ignore_store, [ 1235; 1904; 34496; 6322; 2845 ]);
        (S.Darsie_no_cf_sync, [ 1239; 1904; 0; 9239; 2521 ]);
      ] );
    ( "BP",
      [
        (S.Darsie, [ 1922; 1274; 38263; 6476; 2257 ]);
        (S.Darsie_ignore_store, [ 1754; 1288; 37213; 6476; 2209 ]);
        (S.Darsie_no_cf_sync, [ 1766; 1288; 0; 7982; 2609 ]);
      ] );
    ( "DCT8x8",
      [
        (S.Darsie, [ 2510; 1454; 42646; 33782; 8554 ]);
        (S.Darsie_ignore_store, [ 2497; 1472; 41882; 33490; 8453 ]);
        (S.Darsie_no_cf_sync, [ 2741; 1404; 0; 60224; 9434 ]);
      ] );
  ]

let test_darsie_family_pinned () =
  let module S = Darsie_harness.Suite in
  List.iter
    (fun (abbr, cells) ->
      let app =
        match Darsie_workloads.Registry.find abbr with
        | Some w -> S.load_app ~scale:1 w
        | None -> Alcotest.failf "no workload %s" abbr
      in
      List.iter
        (fun (m, expected) ->
          let r = S.run_app app m in
          let st = r.S.gpu.Gpu.stats in
          Alcotest.(check (list int))
            (abbr ^ "/" ^ S.machine_name m)
            expected
            [
              r.S.gpu.Gpu.cycles;
              st.Stats.skipped_prefetch;
              st.Stats.darsie_sync_stalls;
              st.Stats.skip_table_probes;
              st.Stats.coalescer_probes;
            ])
        cells)
    pinned_darsie_counters

let test_engine_names () =
  check_bool "names" true
    (Darsie_engine.name_of Darsie_engine.default_options = "DARSIE"
    && Darsie_engine.name_of
         { Darsie_engine.ignore_store = true; no_cf_sync = false }
       = "DARSIE-IGNORE-STORE"
    && Darsie_engine.name_of
         { Darsie_engine.ignore_store = false; no_cf_sync = true }
       = "DARSIE-NO-CF-SYNC")

let () =
  Alcotest.run "darsie_core"
    [
      ("majority", [ Alcotest.test_case "mask ops" `Quick test_majority ]);
      ( "skip-table",
        [
          Alcotest.test_case "lifecycle" `Quick test_skip_table_lifecycle;
          Alcotest.test_case "versions" `Quick test_skip_table_versions;
          Alcotest.test_case "capacity" `Quick test_skip_table_capacity;
          Alcotest.test_case "flush loads" `Quick test_skip_table_flush_loads;
          Alcotest.test_case "majority shrink" `Quick
            test_skip_table_majority_shrink;
          QCheck_alcotest.to_alcotest qcheck_skip_table;
        ] );
      ( "engine",
        [
          Alcotest.test_case "skips in 2D" `Quick test_darsie_skips_2d;
          Alcotest.test_case "demotes in 1D" `Quick test_darsie_no_skips_1d;
          Alcotest.test_case "uniform in 1D" `Quick
            test_darsie_uniform_skipped_in_1d;
          Alcotest.test_case "store flush" `Quick test_darsie_store_flush;
          Alcotest.test_case "divergence excluded" `Quick
            test_darsie_divergent_warp_excluded;
          Alcotest.test_case "loop versions" `Quick test_darsie_loop_versions;
          Alcotest.test_case "no-cf-sync" `Quick
            test_darsie_no_cf_sync_skips_at_least_as_much;
          Alcotest.test_case "counters" `Quick test_darsie_counters;
          Alcotest.test_case "family counters pinned" `Quick
            test_darsie_family_pinned;
          Alcotest.test_case "names" `Quick test_engine_names;
        ] );
    ]
