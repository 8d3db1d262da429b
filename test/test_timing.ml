(* Tests for the timing substrate: memory-system models, kernel static
   info, occupancy, and end-to-end SM/GPU behaviour on crafted kernels. *)

open Darsie_isa
open Darsie_timing
module Obs = Darsie_obs

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

let parse = Parser.parse_kernel

(* ------------------------------------------------------------------ *)
(* Coalescer                                                           *)
(* ------------------------------------------------------------------ *)

(* One memory op touching [addrs], packed as a one-op warp trace. *)
let mem_op addrs = Darsie_trace.Record.warp_of_ops [| (0, 0, 1, addrs) |]

let coalesce ?(s = Mem_model.scratch ()) ~line_bytes addrs =
  let n = Mem_model.coalesce s ~line_bytes (mem_op addrs) 0 in
  List.init n (Mem_model.line s)

let shared_conflicts ?(s = Mem_model.scratch ()) ~banks addrs =
  Mem_model.shared_conflicts s ~banks (mem_op addrs) 0

let test_coalesce () =
  let lines = coalesce ~line_bytes:128 (Array.init 32 (fun i -> 4 * i)) in
  check_int "consecutive words coalesce to one line" 1 (List.length lines);
  let strided =
    coalesce ~line_bytes:128 (Array.init 32 (fun i -> 128 * i))
  in
  check_int "stride-128 needs 32 transactions" 32 (List.length strided);
  let two =
    coalesce ~line_bytes:128 (Array.init 32 (fun i -> 64 + (4 * i)))
  in
  check_int "misaligned spans two lines" 2 (List.length two);
  check_int "empty" 0 (List.length (coalesce ~line_bytes:128 [||]));
  Alcotest.(check (list int))
    "first-touch order" [ 0; 128 ]
    (coalesce ~line_bytes:128 [| 4; 200; 8; 132 |])

let test_shared_conflicts () =
  check_int "broadcast is free" 0
    (shared_conflicts ~banks:32 (Array.make 32 64));
  check_int "one word per bank" 0
    (shared_conflicts ~banks:32 (Array.init 32 (fun i -> 4 * i)));
  (* stride-2 words: 16 banks get 2 distinct words each *)
  check_int "2-way conflict" 1
    (shared_conflicts ~banks:32 (Array.init 32 (fun i -> 8 * i)));
  (* stride-32 words: all map to bank 0 *)
  check_int "32-way conflict" 31
    (shared_conflicts ~banks:32 (Array.init 32 (fun i -> 128 * i)));
  check_int "empty" 0 (shared_conflicts ~banks:32 [||])

(* The reference model: the Hashtbl-and-list implementations the memory
   model used before it read addresses in place. *)
let reference_coalesce ~line_bytes accesses =
  let seen = Hashtbl.create 32 in
  let lines = ref [] in
  Array.iter
    (fun addr ->
      let line = addr - (addr mod line_bytes) in
      if not (Hashtbl.mem seen line) then begin
        Hashtbl.add seen line ();
        lines := line :: !lines
      end)
    accesses;
  List.rev !lines

let reference_shared_conflicts ~banks accesses =
  if Array.length accesses = 0 then 0
  else begin
    let per_bank = Hashtbl.create 64 in
    Array.iter
      (fun addr ->
        let word = addr / 4 in
        let bank = word mod banks in
        let words =
          Option.value ~default:[] (Hashtbl.find_opt per_bank bank)
        in
        if not (List.mem word words) then
          Hashtbl.replace per_bank bank (word :: words))
      accesses;
    Hashtbl.fold (fun _ ws acc -> max acc (List.length ws)) per_bank 1 - 1
  end

(* Up to 32 lane addresses drawn from a small pool (duplicates), all one
   address (a broadcast), or anywhere in the 32-bit space; bank counts
   1-40 cover smem_banks values other than the warp size. *)
let accesses_gen =
  QCheck.Gen.(
    let u32 = map (fun x -> x land 0xFFFF_FFFF) int in
    let lanes = int_range 0 32 in
    oneof
      [
        (lanes >>= fun n ->
         array_size (return 8) u32 >>= fun pool ->
         array_size (return n) (oneofa pool) );
        (lanes >>= fun n -> u32 >|= fun a -> Array.make n a);
        (lanes >>= fun n -> array_size (return n) u32);
        (lanes >>= fun n ->
         u32 >>= fun base ->
         array_size (return n) (int_range 0 4096) >|= fun offs ->
         Array.map (fun o -> (base + o) land 0xFFFF_FFFF) offs );
      ])

let shared_scratch = Mem_model.scratch ()

let qcheck_mem_model =
  QCheck.Test.make ~name:"in-place coalescer and bank conflicts = reference"
    ~count:2000
    (QCheck.make
       ~print:(fun (a, b, l) ->
         Printf.sprintf "banks=%d line=%d [%s]" b l
           (String.concat ";" (Array.to_list (Array.map string_of_int a))))
       QCheck.Gen.(
         triple accesses_gen (int_range 1 40) (oneofl [ 32; 64; 128 ])))
    (fun (addrs, banks, line_bytes) ->
      coalesce ~s:shared_scratch ~line_bytes addrs
      = reference_coalesce ~line_bytes addrs
      && shared_conflicts ~s:shared_scratch ~banks addrs
         = reference_shared_conflicts ~banks addrs)

let test_mem_model_allocates_nothing () =
  let w = mem_op (Array.init 32 (fun i -> 128 * i)) in
  let s = Mem_model.scratch () in
  let before = Gc.minor_words () in
  for _ = 1 to 1000 do
    ignore (Mem_model.coalesce s ~line_bytes:128 w 0);
    ignore (Mem_model.shared_conflicts s ~banks:32 w 0)
  done;
  let words = Gc.minor_words () -. before in
  (* the two float boxes of the Gc.minor_words calls are all there is *)
  check_bool
    (Printf.sprintf "1000 calls allocate nothing (%.0f minor words)" words)
    true (words < 16.)

(* ------------------------------------------------------------------ *)
(* L1 and DRAM                                                         *)
(* ------------------------------------------------------------------ *)

let test_l1 () =
  let l1 = Mem_model.L1.create ~bytes:1024 ~assoc:2 ~line:128 in
  (* 4 sets *)
  check_bool "cold miss" false (Mem_model.L1.access l1 0);
  check_bool "hit" true (Mem_model.L1.access l1 0);
  check_bool "same line different word" true (Mem_model.L1.access l1 64);
  (* fill the set: lines 0, 512 map to set 0 with 4 sets x 128 *)
  check_bool "second way" false (Mem_model.L1.access l1 512);
  check_bool "both resident" true (Mem_model.L1.access l1 0);
  check_bool "probe does not allocate" false (Mem_model.L1.probe l1 1024);
  (* evict LRU (512 was used less recently than 0) *)
  ignore (Mem_model.L1.access l1 1024);
  check_bool "victim evicted" false (Mem_model.L1.probe l1 512);
  check_bool "MRU survives" true (Mem_model.L1.probe l1 0);
  Mem_model.L1.flush l1;
  check_bool "flush empties" false (Mem_model.L1.probe l1 0)

let test_dram () =
  let d = Mem_model.Dram.create ~txn_cycles:2 ~latency:100 in
  check_int "first burst" 104 (Mem_model.Dram.request d ~now:0 ~ntxns:2);
  (* channel busy until cycle 4; next burst queues *)
  check_int "queued burst" 106 (Mem_model.Dram.request d ~now:0 ~ntxns:1);
  check_int "busy_until" 6 (Mem_model.Dram.busy_until d);
  check_int "idle gap" 216 (Mem_model.Dram.request d ~now:110 ~ntxns:3)

(* ------------------------------------------------------------------ *)
(* Kinfo / occupancy                                                   *)
(* ------------------------------------------------------------------ *)

let sample_launch () =
  let k =
    parse
      {|
.kernel s
.params 1
  mul.lo.u32 %r0, %tid.x, 4;
  add.u32 %r1, %r0, %param0;
  ld.global.u32 %r2, [%r1+0];
  sqrt.f32 %r3, %r2;
  st.shared.u32 [%r0], %r3;
  bar.sync;
  setp.lt.s32 %p0, %r0, 64;
@%p0 bra end;
end:
  exit;
|}
  in
  let k = { k with Kernel.shared_bytes = 1024 } in
  Kernel.launch k ~grid:(Kernel.dim3 4) ~block:(Kernel.dim3 16 ~y:16)
    ~params:[| 0x2000 |]

let test_kinfo () =
  let launch = sample_launch () in
  let ki = Kinfo.make ~warp_size:32 launch in
  check_bool "mul is alu" true (ki.Kinfo.unit_of.(0) = Kinfo.Alu);
  check_bool "ld is global mem" true (ki.Kinfo.unit_of.(2) = Kinfo.Mem_global);
  check_bool "sqrt is sfu" true (ki.Kinfo.unit_of.(3) = Kinfo.Sfu);
  check_bool "st.shared is shared mem" true
    (ki.Kinfo.unit_of.(4) = Kinfo.Mem_shared);
  check_bool "bar is ctrl" true (ki.Kinfo.unit_of.(5) = Kinfo.Ctrl);
  check_bool "branch flagged" true ki.Kinfo.is_branch.(7);
  check_bool "load flagged" true ki.Kinfo.is_load.(2);
  (* 16x16 launch promotes the tid.x chain *)
  check_bool "mul tb-redundant" true ki.Kinfo.tb_redundant.(0);
  check_bool "load tb-redundant" true ki.Kinfo.tb_redundant.(2);
  check_bool "store never redundant" false ki.Kinfo.tb_redundant.(4)

let test_occupancy () =
  let cfg = Config.default in
  let k = Kernel.make ~name:"k" [| Instr.mk Instr.Exit |] in
  (* warp limit: 8 warps/TB -> 8 TBs with 64 warps *)
  check_int "warp-limited" 8 (Gpu.occupancy cfg k ~warps_per_tb:8);
  check_int "tb-slot limited" 32 (Gpu.occupancy cfg k ~warps_per_tb:1);
  let k_shared = { k with Kernel.shared_bytes = 48 * 1024 } in
  check_int "shared-limited" 2 (Gpu.occupancy cfg k_shared ~warps_per_tb:2);
  let k_regs = { k with Kernel.nregs = 64 } in
  (* 64 regs x 8 warps = 512 per TB; 2048/512 = 4 *)
  check_int "register-limited" 4 (Gpu.occupancy cfg k_regs ~warps_per_tb:8)

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)
(* ------------------------------------------------------------------ *)

let test_stats_add () =
  let a = Stats.create () and b = Stats.create () in
  a.Stats.cycles <- 10;
  a.Stats.issued <- 5;
  b.Stats.cycles <- 20;
  b.Stats.issued <- 7;
  b.Stats.skipped_prefetch <- 3;
  b.Stats.dropped_issue <- 2;
  Stats.add a b;
  check_int "cycles take max" 20 a.Stats.cycles;
  check_int "issued sum" 12 a.Stats.issued;
  check_int "total eliminated" 5 (Stats.total_eliminated a)

(* ------------------------------------------------------------------ *)
(* End-to-end timing behaviour                                         *)
(* ------------------------------------------------------------------ *)

let run_timing ?(cfg = Config.default) ?(engine = Engine.base_factory)
    ?(grid = Kernel.dim3 4) ?(block = Kernel.dim3 64) ktext params =
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
  Gpu.run_exn ~cfg engine kinfo trace

let alu_kernel =
  {|
.kernel alu
  mov.u32 %r0, %tid.x;
  add.u32 %r1, %r0, 1;
  add.u32 %r2, %r1, 2;
  add.u32 %r3, %r2, 3;
  add.u32 %r4, %r3, 4;
  add.u32 %r5, %r4, 5;
  exit;
|}

let test_baseline_sanity () =
  let r = run_timing alu_kernel [||] in
  check_int "all instructions issued" (7 * 2 * 4) r.Gpu.stats.Stats.issued;
  check_int "all fetched" (7 * 2 * 4) r.Gpu.stats.Stats.fetched;
  check_bool "cycles positive and bounded" true
    (r.Gpu.cycles > 5 && r.Gpu.cycles < 1000);
  check_bool "ipc sane" true (Gpu.ipc r > 0.05)

let test_dependent_chain_slower () =
  let independent =
    {|
.kernel ind
  mov.u32 %r0, %tid.x;
  add.u32 %r1, %r0, 1;
  add.u32 %r2, %r0, 2;
  add.u32 %r3, %r0, 3;
  add.u32 %r4, %r0, 4;
  add.u32 %r5, %r0, 5;
  exit;
|}
  in
  (* single warp exposes latency; many warps would hide it *)
  let dep = run_timing ~grid:(Kernel.dim3 1) ~block:(Kernel.dim3 32) alu_kernel [||] in
  let ind = run_timing ~grid:(Kernel.dim3 1) ~block:(Kernel.dim3 32) independent [||] in
  check_bool "dependent chain takes longer" true (dep.Gpu.cycles > ind.Gpu.cycles)

let test_memory_latency_visible () =
  let compute = run_timing ~grid:(Kernel.dim3 1) ~block:(Kernel.dim3 32) alu_kernel [||] in
  let memory =
    run_timing ~grid:(Kernel.dim3 1) ~block:(Kernel.dim3 32)
      {|
.kernel m
.params 1
  mul.lo.u32 %r0, %tid.x, 512;
  add.u32 %r1, %r0, %param0;
  ld.global.u32 %r2, [%r1+0];
  add.u32 %r3, %r2, 1;
  exit;
|}
      [| true |]
  in
  check_bool "uncoalesced miss latency dominates" true
    (memory.Gpu.cycles > compute.Gpu.cycles + 100);
  check_bool "misses recorded" true (memory.Gpu.stats.Stats.l1_misses > 0);
  check_bool "dram transactions recorded" true
    (memory.Gpu.stats.Stats.dram_transactions >= 32)

let test_l1_reuse () =
  (* same line re-read: second load hits *)
  let r =
    run_timing ~grid:(Kernel.dim3 1) ~block:(Kernel.dim3 32)
      {|
.kernel reuse
.params 1
  ld.global.u32 %r0, [%param0+0];
  ld.global.u32 %r1, [%param0+4];
  exit;
|}
      [| true |]
  in
  check_int "one miss" 1 r.Gpu.stats.Stats.l1_misses;
  check_int "two accesses" 2 r.Gpu.stats.Stats.l1_accesses

let test_barrier_timing () =
  let with_bar =
    run_timing ~grid:(Kernel.dim3 1) ~block:(Kernel.dim3 256)
      {|
.kernel b
  mov.u32 %r0, %tid.x;
  bar.sync;
  add.u32 %r1, %r0, 1;
  exit;
|}
      [||]
  in
  let without =
    run_timing ~grid:(Kernel.dim3 1) ~block:(Kernel.dim3 256)
      {|
.kernel nb
  mov.u32 %r0, %tid.x;
  add.u32 %r1, %r0, 1;
  exit;
|}
      [||]
  in
  check_bool "barrier costs at least its latency" true
    (with_bar.Gpu.cycles >= without.Gpu.cycles + Config.default.Config.barrier_lat);
  check_bool "barrier stalls recorded" true
    (with_bar.Gpu.stats.Stats.barrier_stall_cycles > 0)

let test_silicon_sync_overhead () =
  let kernel =
    {|
.kernel loop
  mov.u32 %r0, 0;
top:
  add.u32 %r0, %r0, 1;
  mul.lo.u32 %r1, %r0, 3;
  setp.lt.s32 %p0, %r0, 20;
@%p0 bra top;
  exit;
|}
  in
  let base = run_timing kernel [||] in
  let sync =
    run_timing ~cfg:{ Config.default with Config.sync_at_branches = true }
      kernel [||]
  in
  check_bool "silicon-sync slows loops down" true (sync.Gpu.cycles > base.Gpu.cycles)

let test_multi_sm_scaling () =
  let one_sm =
    run_timing ~cfg:{ Config.default with Config.num_sms = 1 }
      ~grid:(Kernel.dim3 64) alu_kernel [||]
  in
  let four_sm =
    run_timing ~cfg:{ Config.default with Config.num_sms = 4 }
      ~grid:(Kernel.dim3 64) alu_kernel [||]
  in
  check_bool "more SMs finish sooner" true (four_sm.Gpu.cycles < one_sm.Gpu.cycles)

let test_fetch_width_matters () =
  let narrow =
    run_timing ~cfg:{ Config.default with Config.fetch_width = 1 } alu_kernel [||]
  in
  let wide =
    run_timing ~cfg:{ Config.default with Config.fetch_width = 4 } alu_kernel [||]
  in
  check_bool "wider fetch helps" true (wide.Gpu.cycles <= narrow.Gpu.cycles)

let test_icache () =
  (* first touch of each 128B line (16 instructions) misses; everything
     after is resident *)
  let r = run_timing ~grid:(Kernel.dim3 1) ~block:(Kernel.dim3 32) alu_kernel [||] in
  check_int "one line, one cold miss" 1 r.Gpu.stats.Stats.icache_misses;
  (* a tiny I-cache with a long loop body thrashes *)
  let body =
    String.concat "\n"
      (List.init 40 (fun i -> Printf.sprintf "  add.u32 %%r%d, %%r0, %d;" ((i mod 5) + 1) i))
  in
  let big =
    Printf.sprintf
      {|
.kernel big
  mov.u32 %%r0, %%tid.x;
%s
  exit;
|}
      body
  in
  let tiny_icache = { Config.default with Config.icache_bytes = 256 } in
  let small = run_timing ~grid:(Kernel.dim3 1) ~block:(Kernel.dim3 32) big [||] in
  let thrash =
    run_timing ~cfg:tiny_icache ~grid:(Kernel.dim3 1) ~block:(Kernel.dim3 32)
      big [||]
  in
  check_bool "more misses with a tiny I-cache" true
    (thrash.Gpu.stats.Stats.icache_misses >= small.Gpu.stats.Stats.icache_misses);
  check_bool "misses cost cycles" true (thrash.Gpu.cycles >= small.Gpu.cycles)

let test_collectors () =
  (* many independent warps; a single operand-collector unit serializes
     register reads *)
  let starved =
    run_timing
      ~cfg:{ Config.default with Config.collector_units = 1 }
      alu_kernel [||]
  in
  let normal = run_timing alu_kernel [||] in
  check_bool "collector starvation slows issue" true
    (starved.Gpu.cycles > normal.Gpu.cycles)

let test_determinism () =
  (* identical traces through identical configs give identical outputs -
     no hidden nondeterminism from hash iteration orders *)
  let k = parse alu_kernel in
  let mem = Darsie_emu.Memory.create () in
  let launch =
    Kernel.launch k ~grid:(Kernel.dim3 8) ~block:(Kernel.dim3 16 ~y:16)
      ~params:[||]
  in
  let kinfo = Kinfo.make ~warp_size:32 launch in
  let trace = Darsie_trace.Record.generate mem launch in
  List.iter
    (fun factory ->
      let r1 = Gpu.run_exn factory kinfo trace in
      match
        Gpu.first_difference ~labels:("first", "second") r1
          (Gpu.run_exn factory kinfo trace)
      with
      | Some d ->
        Alcotest.failf "%s nondeterministic: %s" r1.Gpu.engine d.Gpu.report
      | None -> ())
    [ Engine.base_factory; Darsie_core.Darsie_engine.factory () ]

(* [Gpu.outputs] is the one definition of a run's simulated outputs that
   every bit-identity differential compares, so each part must be in it:
   a rerun matches, and a change to any one part is reported under that
   part's name. *)
let test_outputs_cover_every_part () =
  let k =
    parse
      {|
.kernel red
.params 2
  mov.u32 %r0, %param0;
  ld.global.u32 %r1, [%r0+0];
  add.u32 %r2, %r1, 42;
  shl.b32 %r3, %tid.x, 2;
  mad.lo.u32 %r4, %tid.y, 128, %r3;
  add.u32 %r5, %r4, %param1;
  st.global.u32 [%r5+0], %r2;
  exit;
|}
  in
  let mem = Darsie_emu.Memory.create () in
  let params = Array.init 2 (fun _ -> Darsie_emu.Memory.alloc mem 65536) in
  let launch =
    Kernel.launch k ~grid:(Kernel.dim3 8) ~block:(Kernel.dim3 32 ~y:4)
      ~params
  in
  let kinfo = Kinfo.make ~warp_size:32 launch in
  let trace = Darsie_trace.Record.generate mem launch in
  let run () =
    Gpu.run_exn ~sample_interval:16 ~pcstat:true
      (Darsie_core.Darsie_engine.factory ()) kinfo trace
  in
  let a = run () in
  let first_part b =
    Option.map
      (fun d -> d.Gpu.part)
      (Gpu.first_difference ~labels:("run", "changed") a b)
  in
  let check_part = Alcotest.(check (option string)) in
  check_part "a rerun matches" None (first_part (run ()));
  let changed part f = check_part part (Some part) (first_part (f (run ()))) in
  changed "per-SM stats" (fun b ->
      let s = b.Gpu.per_sm.(1) in
      s.Stats.rf_reads <- s.Stats.rf_reads + 1;
      b);
  changed "attribution" (fun b ->
      Obs.Attrib.bump b.Gpu.attribution Obs.Attrib.Idle;
      b);
  changed "ledger" (fun b ->
      Obs.Ledger.note b.Gpu.ledger ~pc:1 Obs.Ledger.Skipped;
      b);
  changed "per-PC" (fun b ->
      Obs.Pcstat.charge (Option.get b.Gpu.pcstat) ~pc:1 Obs.Attrib.Idle;
      b);
  changed "skip telemetry" (fun b ->
      match b.Gpu.skip_telemetry with
      | (pc, e) :: rest ->
        let e = { e with Obs.Pcstat.sk_lifetime = e.sk_lifetime + 1 } in
        { b with Gpu.skip_telemetry = (pc, e) :: rest }
      | [] -> Alcotest.fail "the kernel left no skip telemetry");
  changed "series" (fun b ->
      match Obs.Series.points b.Gpu.series.(0) with
      | p :: _ ->
        p.Obs.Series.values.(0) <- p.Obs.Series.values.(0) + 1;
        b
      | [] -> Alcotest.fail "the series has no points")

let test_lrr_scheduler () =
  let cfg = { Config.default with Config.scheduler = Config.Lrr } in
  let r = run_timing ~cfg alu_kernel [||] in
  check_int "lrr executes everything" (7 * 2 * 4) r.Gpu.stats.Stats.issued;
  let gto = run_timing alu_kernel [||] in
  (* regular kernels are insensitive to the scheduler choice (paper §5) *)
  check_bool "within 25% of GTO" true
    (abs (r.Gpu.cycles - gto.Gpu.cycles) * 4 <= gto.Gpu.cycles)

let test_engine_drop_at_issue () =
  (* an engine that drops everything still completes, with zero executed *)
  let drop_all : Engine.factory =
   fun _ _ _ ->
    let base = Engine.base () in
    { base with Engine.on_issue = (fun ~cycle:_ _ _ -> Engine.Drop) }
  in
  let r = run_timing ~engine:drop_all alu_kernel [||] in
  check_int "nothing executed" 0 r.Gpu.stats.Stats.issued;
  check_int "everything dropped" (7 * 2 * 4) r.Gpu.stats.Stats.dropped_issue

let test_engine_remove_at_fetch () =
  let remove_alu : Engine.factory =
   fun kinfo _ _ ->
    let base = Engine.base () in
    {
      base with
      Engine.remove_at_fetch =
        (fun w i ->
          kinfo.Kinfo.unit_of.(Darsie_trace.Record.idx w.Engine.trace i)
          = Kinfo.Alu);
    }
  in
  let r = run_timing ~engine:remove_alu alu_kernel [||] in
  (* only exit remains *)
  check_int "alu removed pre-fetch" (6 * 2 * 4) r.Gpu.stats.Stats.skipped_prefetch;
  check_int "exit still issues" (2 * 4) r.Gpu.stats.Stats.issued

(* The SM cross-checks its per-slot barrier counter against the warps'
   [at_barrier] flags. An engine that parks a warp at a barrier behind
   the SM's back must trip that check, not hang until the watchdog
   fires. *)
let test_barrier_count_checked () =
  let rogue : Engine.factory =
   fun _ _ _ ->
    let fired = ref false in
    {
      (Engine.base ()) with
      Engine.on_writeback =
        (fun ~cycle:_ w _ ->
          if not !fired then begin
            fired := true;
            w.Engine.at_barrier <- true
          end);
    }
  in
  match run_timing ~engine:rogue alu_kernel [||] with
  | _ -> Alcotest.fail "the run ended without tripping the barrier check"
  | exception Assert_failure _ -> ()

(* The cycle loop allocates next to nothing per simulated op: what
   [Gpu.run] of MM at scale 1 allocates, set-up and per-TB launch
   included, stays within 16 minor words per trace op on BASE and on
   DARSIE. *)
let test_cycle_loop_allocation () =
  let module Suite = Darsie_harness.Suite in
  let app = Suite.load_app (Option.get (Darsie_workloads.Registry.find "MM")) in
  let ops = Darsie_trace.Record.total_ops app.Suite.trace in
  List.iter
    (fun machine ->
      let cfg, factory = Suite.setup machine in
      let before = Gc.minor_words () in
      ignore (Gpu.run_exn ~cfg factory app.Suite.kinfo app.Suite.trace);
      let per_op = (Gc.minor_words () -. before) /. float_of_int ops in
      check_bool
        (Printf.sprintf "%s: %.1f minor words per trace op"
           (Suite.machine_name machine) per_op)
        true (per_op <= 16.))
    [ Suite.Base; Suite.Darsie ]

let () =
  Alcotest.run "darsie_timing"
    [
      ( "mem-model",
        [
          Alcotest.test_case "coalescer" `Quick test_coalesce;
          Alcotest.test_case "shared conflicts" `Quick test_shared_conflicts;
          QCheck_alcotest.to_alcotest qcheck_mem_model;
          Alcotest.test_case "allocation-free" `Quick
            test_mem_model_allocates_nothing;
          Alcotest.test_case "l1" `Quick test_l1;
          Alcotest.test_case "dram" `Quick test_dram;
          Alcotest.test_case "cycle loop allocation" `Quick
            test_cycle_loop_allocation;
        ] );
      ( "static",
        [
          Alcotest.test_case "kinfo" `Quick test_kinfo;
          Alcotest.test_case "occupancy" `Quick test_occupancy;
          Alcotest.test_case "stats add" `Quick test_stats_add;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "baseline sanity" `Quick test_baseline_sanity;
          Alcotest.test_case "dependent chain" `Quick test_dependent_chain_slower;
          Alcotest.test_case "memory latency" `Quick test_memory_latency_visible;
          Alcotest.test_case "l1 reuse" `Quick test_l1_reuse;
          Alcotest.test_case "barrier timing" `Quick test_barrier_timing;
          Alcotest.test_case "silicon sync" `Quick test_silicon_sync_overhead;
          Alcotest.test_case "multi-sm" `Quick test_multi_sm_scaling;
          Alcotest.test_case "fetch width" `Quick test_fetch_width_matters;
          Alcotest.test_case "icache" `Quick test_icache;
          Alcotest.test_case "collectors" `Quick test_collectors;
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "lrr scheduler" `Quick test_lrr_scheduler;
        ] );
      ( "outputs",
        [
          Alcotest.test_case "one definition covers every part" `Quick
            test_outputs_cover_every_part;
        ] );
      ( "engine-hooks",
        [
          Alcotest.test_case "drop at issue" `Quick test_engine_drop_at_issue;
          Alcotest.test_case "remove at fetch" `Quick test_engine_remove_at_fetch;
          Alcotest.test_case "barrier count checked" `Quick
            test_barrier_count_checked;
        ] );
    ]
