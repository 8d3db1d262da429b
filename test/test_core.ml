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
  let t = Skip_table.create ~pcs:16 ~max_entries:8 ~rename_regs:4 in
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
  let t = Skip_table.create ~pcs:16 ~max_entries:8 ~rename_regs:4 in
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
  let t = Skip_table.create ~pcs:16 ~max_entries:2 ~rename_regs:8 in
  Skip_table.allocate t ~pc:0 ~occ:0 ~leader:0 ~mem_dep:false;
  Skip_table.allocate t ~pc:1 ~occ:0 ~leader:0 ~mem_dep:false;
  check_bool "third PC refused" false (Skip_table.can_allocate t ~pc:2);
  check_bool "existing PC still ok" true (Skip_table.can_allocate t ~pc:1);
  let t2 = Skip_table.create ~pcs:16 ~max_entries:8 ~rename_regs:1 in
  Skip_table.allocate t2 ~pc:0 ~occ:0 ~leader:0 ~mem_dep:false;
  check_bool "freelist exhausted" false (Skip_table.can_allocate t2 ~pc:1);
  Alcotest.check_raises "allocate past capacity"
    (Invalid_argument "Skip_table.allocate: table or freelist exhausted")
    (fun () -> Skip_table.allocate t2 ~pc:1 ~occ:0 ~leader:0 ~mem_dep:false)

let test_skip_table_flush_loads () =
  let t = Skip_table.create ~pcs:16 ~max_entries:8 ~rename_regs:8 in
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
  let t = Skip_table.create ~pcs:16 ~max_entries:8 ~rename_regs:8 in
  Skip_table.allocate t ~pc:0 ~occ:0 ~leader:0 ~mem_dep:false;
  Skip_table.mark_writeback t ~pc:0 ~occ:0 ~majority:0b11;
  (* warp 1 never passes, but it leaves the majority *)
  check_int "still held for warp 1" 1 (Skip_table.live_instances t);
  Skip_table.recheck t ~majority:0b01;
  check_int "freed once majority shrinks" 0 (Skip_table.live_instances t)

(* qcheck: the table's invariants ([Skip_table.check_invariants], which
   include freelist conservation) hold after every operation of a random
   sequence over every PC of the table, its last index included *)
let qcheck_skip_table =
  let pcs = 8 in
  let op_gen =
    QCheck.Gen.(
      map3
        (fun a b c -> (a mod 6, b mod pcs, c mod 3))
        (int_bound 1000) (int_bound 1000) (int_bound 1000))
  in
  QCheck.Test.make ~name:"skip-table freelist conservation" ~count:300
    (QCheck.make (QCheck.Gen.list_size (QCheck.Gen.return 40) op_gen))
    (fun ops ->
      let t = Skip_table.create ~pcs ~max_entries:4 ~rename_regs:6 in
      List.iteri
        (fun n (kind, pc, occ) ->
          (match kind with
          | 0 ->
            if
              Skip_table.can_allocate t ~pc
              && Skip_table.find t ~pc ~occ = None
            then
              Skip_table.allocate t ~pc ~occ ~leader:0
                ~mem_dep:(pc mod 2 = 0)
          | 1 -> Skip_table.mark_writeback t ~pc ~occ ~majority:0b11
          | 2 -> Skip_table.mark_passed t ~pc ~occ ~warp:1 ~majority:0b11
          | 3 -> Skip_table.flush_loads t ~kind:`Store
          | 4 -> Skip_table.recheck t ~majority:0b01
          | _ -> Skip_table.flush_all t);
          match Skip_table.check_invariants t with
          | Ok () -> ()
          | Error m ->
            QCheck.Test.fail_reportf
              "after operation %d (%d, pc %d, occ %d): %s" n kind pc occ m)
        ops;
      Skip_table.free_regs t + Skip_table.live_instances t = 6
      && Skip_table.free_regs t >= 0)

(* ------------------------------------------------------------------ *)
(* DARSIE engine end to end                                            *)
(* ------------------------------------------------------------------ *)

let prepare ?(grid = Kernel.dim3 2) ?(block = Kernel.dim3 16 ~y:16) ktext
    params =
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
  (Kinfo.make ~warp_size:32 launch, Darsie_trace.Record.generate mem launch)

let run_darsie ?(options = Darsie_engine.default_options)
    ?(cfg = Config.default) ?grid ?block ktext params =
  let kinfo, trace = prepare ?grid ?block ktext params in
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

(* ------------------------------------------------------------------ *)
(* What ends a wait, on crafted kernels                                 *)
(* ------------------------------------------------------------------ *)

(* What the DARSIE engine's hooks saw, TBs named by their global index
   and warps by their index in the TB:
   - [wbs]: every writeback as (cycle, TB, warp, trace position);
   - [skips]: every position a stepped skip phase skipped, the same way;
   - [gates]: after every stepped skip phase, each resident warp as
     (cycle, TB, warp, cursor, fetch gate, drop reason);
   - [flushes]: every store, atomic and barrier arrival, latest first,
     as (TB, warps of the TB then parked in a skip-table entry). *)
type seen = {
  mutable wbs : (int * int * int * int) list;
  mutable skips : (int * int * int * int) list;
  mutable gates : (int * int * int * int * bool * int) list;
  mutable flushes : (int * int) list;
}

let observe () = { wbs = []; skips = []; gates = []; flushes = [] }

let observed seen : Engine.factory =
 fun kinfo cfg stats ->
  let e = Darsie_engine.factory () kinfo cfg stats in
  let resident = Hashtbl.create 4 in
  let tb_warps (w : Engine.wctx) = Hashtbl.find resident w.Engine.tb_slot in
  let parked (w : Engine.wctx) =
    Array.fold_left
      (fun n (x : Engine.wctx) -> if x.Engine.parked_at >= 0 then n + 1 else n)
      0 (tb_warps w)
  in
  {
    e with
    Engine.on_tb_launch =
      (fun ~tb_slot ~warps ->
        Hashtbl.replace resident tb_slot warps;
        e.Engine.on_tb_launch ~tb_slot ~warps);
    on_tb_finish =
      (fun ~tb_slot ->
        Hashtbl.remove resident tb_slot;
        e.Engine.on_tb_finish ~tb_slot);
    on_writeback =
      (fun ~cycle w i ->
        seen.wbs <-
          (cycle, w.Engine.tb_id, w.Engine.warp_in_tb, i) :: seen.wbs;
        e.Engine.on_writeback ~cycle w i);
    on_store =
      (fun ~atomic w ->
        seen.flushes <- (w.Engine.tb_id, parked w) :: seen.flushes;
        e.Engine.on_store ~atomic w);
    on_issue =
      (fun ~cycle w i ->
        if kinfo.Kinfo.is_barrier.(Darsie_trace.Record.idx w.Engine.trace i)
        then seen.flushes <- (w.Engine.tb_id, parked w) :: seen.flushes;
        e.Engine.on_issue ~cycle w i);
    cycle_skip =
      (fun ~cycle ->
        let before =
          Hashtbl.fold
            (fun _ ws acc ->
              Array.fold_left
                (fun acc (w : Engine.wctx) -> (w, w.Engine.fi) :: acc)
                acc ws)
            resident []
        in
        e.Engine.cycle_skip ~cycle;
        List.iter
          (fun ((w : Engine.wctx), fi0) ->
            for pos = fi0 to w.Engine.fi - 1 do
              seen.skips <-
                (cycle, w.Engine.tb_id, w.Engine.warp_in_tb, pos)
                :: seen.skips
            done;
            seen.gates <-
              ( cycle,
                w.Engine.tb_id,
                w.Engine.warp_in_tb,
                w.Engine.fi,
                w.Engine.fetch_ok,
                w.Engine.drop_reason )
              :: seen.gates)
          before);
  }

(* Run [ktext] on DARSIE through the observer, and return the result with
   the figures each case pins: cycles, sync stalls and Σ per-PC parks. *)
let run_observed ?grid ktext params =
  let seen = observe () in
  let kinfo, trace = prepare ?grid ktext params in
  let r = Gpu.run_exn (observed seen) kinfo trace in
  let parks =
    List.fold_left
      (fun n (_, (e : Darsie_obs.Pcstat.skip_entry)) -> n + e.sk_parks)
      0 r.Gpu.skip_telemetry
  in
  (r, seen, [ r.Gpu.cycles; r.Gpu.stats.Stats.darsie_sync_stalls; parks ])

let check_pinned name want got = Alcotest.(check (list int)) name want got

(* Straight-line kernels: every warp's trace position of an instruction
   is its index, and [ld] is instruction 1. *)
let wb_kernel =
  {|
.kernel wbwake
.params 1
  mov.u32 %r1, %param0;
  ld.global.u32 %r2, [%r1+0];
  add.u32 %r3, %r2, 7;
  exit;
|}

let test_wake_leader_wb () =
  let _, seen, pinned = run_observed wb_kernel [| true |] in
  let ld = 1 in
  List.iter
    (fun tb ->
      let wb =
        match
          List.filter (fun (_, t, _, pos) -> t = tb && pos = ld) seen.wbs
        with
        | [ (c, _, _, _) ] -> c
        | l -> Alcotest.failf "TB %d: %d leader writebacks" tb (List.length l)
      in
      let followers =
        List.filter (fun (_, t, _, pos) -> t = tb && pos = ld) seen.skips
      in
      check_int "7 followers skip the load" 7 (List.length followers);
      List.iter
        (fun (c, _, w, _) ->
          check_int
            (Printf.sprintf "TB %d warp %d skips at the writeback" tb w)
            wb c)
        followers)
    [ 0; 1 ];
  check_pinned "cycles, sync stalls, parks" [ 268; 2422; 2422 ] pinned

(* Warps reach the TB-redundant [ld] (instruction 6) after their own
   store or atomic; the first arrival leads, the rest park, and the other
   warps' stores flush the entry under them. *)
let flush_kernel op =
  Printf.sprintf
    {|
.kernel flushwake
.params 2
  mad.lo.u32 %%r4, %%tid.y, %%ntid.x, %%tid.x;
  shl.b32 %%r4, %%r4, 2;
  add.u32 %%r4, %%r4, %%param1;
  %s;
  mov.u32 %%r1, %%param0;
  add.u32 %%r1, %%r1, 64;
  ld.global.u32 %%r2, [%%r1+0];
  add.u32 %%r3, %%r2, 7;
  exit;
|}
    op

let check_flush_wake ~op ~fate ~pin () =
  let r, seen, pinned = run_observed (flush_kernel op) [| true; true |] in
  let ld = 6 in
  check_bool "a flush found followers parked" true
    (List.exists (fun (_, n) -> n > 0) seen.flushes);
  check_bool "woken followers execute the load" true
    (Darsie_obs.Ledger.get r.Gpu.ledger ~pc:ld fate > 0);
  check_pinned "cycles, sync stalls, parks" pin pinned

let test_wake_store_flush =
  check_flush_wake ~op:"st.global.u32 [%r4+0], %r4"
    ~fate:Darsie_obs.Ledger.Flushed_store ~pin:[ 309; 530; 530 ]

let test_wake_atomic_flush =
  check_flush_wake ~op:"atom.global.add.u32 %r5, [%r4+0], 1"
    ~fate:Darsie_obs.Ledger.Flushed_atomic ~pin:[ 314; 530; 530 ]

(* Each warp can fetch past [bar.sync] (instruction 1) into its
   I-buffer; the first to reach [mov] (instruction 2) leads it but cannot
   issue it before the barrier, so followers park until the barrier's
   reset flushes the entry. *)
let barrier_kernel =
  {|
.kernel barwake
.params 1
  mad.lo.u32 %r4, %tid.y, %ntid.x, %tid.x;
  bar.sync;
  mov.u32 %r1, %param0;
  ld.global.u32 %r2, [%r1+0];
  add.u32 %r3, %r2, 7;
  exit;
|}

let test_wake_barrier () =
  let r, seen, pinned = run_observed barrier_kernel [| true |] in
  List.iter
    (fun tb ->
      (* the latest arrival is the one that completes the barrier *)
      check_bool
        (Printf.sprintf "TB %d's barrier completes with warps parked" tb)
        true
        (List.assoc tb seen.flushes > 0))
    [ 0; 1 ];
  let mov_flushes =
    match List.assoc_opt 2 r.Gpu.skip_telemetry with
    | Some e -> e.Darsie_obs.Pcstat.sk_barrier_flushes
    | None -> 0
  in
  check_bool "the barrier flushed the entry they waited on" true
    (mov_flushes > 0);
  check_pinned "cycles, sync stalls, parks" [ 305; 2627; 2627 ] pinned

(* Branch B1 splits warp 7 only (tid.y 14 takes it, 15 falls through),
   and every warp takes the taken path first, so all stay on the majority
   path. At B2, warps 0-6 arrive with full masks and wait for warp 7,
   which arrives with half a mask and leaves the majority: the sync is
   complete from then on, and the waiters go the next cycle. One TB: the
   fetch order after B1 makes warp 7 the last to reach B2 on SM 0. *)
let sync_kernel =
  {|
.kernel syncdrop
.params 1
  setp.ne.u32 %p0, %tid.y, 15;
@%p0 bra T;
  mov.u32 %r1, 2;
  bra J;
T:
@%p0 bra J;
  mov.u32 %r1, 3;
J:
  exit;
|}

let test_wake_sync_majority_drop () =
  let _, seen, pinned =
    run_observed ~grid:(Kernel.dim3 1) sync_kernel [| false |]
  in
  (* B2 is the third op of warps 0-6's traces: setp, B1, B2 *)
  let b2 = 2 in
  let drop =
    List.filter (fun (_, _, w, _, _, dr) -> w = 7 && dr = 1) seen.gates
    |> List.fold_left (fun m (c, _, _, _, _, _) -> min m c) max_int
  in
  let waiters c ok =
    List.filter
      (fun (c', _, w, fi, ok', _) -> c' = c && w < 7 && fi = b2 && ok' = ok)
      seen.gates
    |> List.length
  in
  check_int "warps 0-6 wait at B2 when warp 7 drops" 7 (waiters drop false);
  check_int "and go the cycle after" 7 (waiters (drop + 1) true);
  check_pinned "cycles, sync stalls, parks" [ 70; 357; 0 ] pinned

(* The other order: warp 1 leaves the majority after warps 0 and 2-7
   wait at B2, and warps 2-7, later in the visit order, must see the
   sync complete in that same cycle. B1 opens the kernel's second
   I-cache line, and warp 1 is the first to fetch it after B1's
   release, so its miss holds it back while the others reach B2. *)
let sync_kernel_early_drop =
  {|
.kernel syncdrop1
.params 1
  setp.ne.u32 %p0, %tid.y, 2;
|}
  ^ String.concat ""
      (List.init 15 (fun _ -> "  add.u32 %r2, %r2, %tid.y;\n"))
  ^ {|@%p0 bra T;
  mov.u32 %r1, 2;
  bra J;
T:
@%p0 bra J;
  mov.u32 %r1, 3;
J:
  exit;
|}

let test_wake_sync_earlier_drop () =
  let _, seen, pinned =
    run_observed ~grid:(Kernel.dim3 1) sync_kernel_early_drop [| false |]
  in
  (* B2 is the eighteenth op of warps 0 and 2-7: setp, 15 adds, B1 *)
  let b2 = 17 in
  let drop =
    List.filter (fun (_, _, w, _, _, dr) -> w = 1 && dr = 1) seen.gates
    |> List.fold_left (fun m (c, _, _, _, _, _) -> min m c) max_int
  in
  let at_b2 c ok ws =
    List.filter
      (fun (c', _, w, fi, ok', _) ->
        c' = c && List.mem w ws && fi = b2 && ok' = ok)
      seen.gates
    |> List.length
  in
  check_int "warps 2-7 go in the cycle warp 1 drops" 6
    (at_b2 drop true [ 2; 3; 4; 5; 6; 7 ]);
  check_int "warp 0, visited before the drop, waits" 1
    (at_b2 drop false [ 0 ]);
  check_int "and goes the cycle after" 1 (at_b2 (drop + 1) true [ 0 ]);
  check_pinned "cycles, sync stalls, parks" [ 173; 698; 0 ] pinned

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
      ( "wake",
        [
          Alcotest.test_case "leader writeback" `Quick test_wake_leader_wb;
          Alcotest.test_case "store flush" `Quick test_wake_store_flush;
          Alcotest.test_case "atomic flush" `Quick test_wake_atomic_flush;
          Alcotest.test_case "barrier reset" `Quick test_wake_barrier;
          Alcotest.test_case "sync released by a later drop" `Quick
            test_wake_sync_majority_drop;
          Alcotest.test_case "sync released by an earlier drop" `Quick
            test_wake_sync_earlier_drop;
        ] );
    ]
