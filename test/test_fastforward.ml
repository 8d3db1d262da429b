(* Differential and fence tests for event-driven fast-forwarding: the
   timing model must produce byte-identical results with the clock-jump
   path on (the default) and off (--no-fast-forward), including when
   jumps span a DRAM return, a barrier release, a TB-launch boundary or
   a sampling boundary, and the watchdog / cycle-bound error paths must
   fire at exactly the same cycle either way. *)

open Darsie_isa
open Darsie_timing
module Obs = Darsie_obs
module Sim_error = Darsie_check.Sim_error
module W = Darsie_workloads.Workload
module J = Darsie_obs.Json

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

let check_string = Alcotest.(check string)

let parse = Parser.parse_kernel

let ff_off cfg = { cfg with Config.fast_forward = false }

(* ------------------------------------------------------------------ *)
(* Crafted-kernel differential harness                                 *)
(* ------------------------------------------------------------------ *)

let prep ?(grid = Kernel.dim3 1) ?(block = Kernel.dim3 32) ktext ~nparams =
  let k = parse ktext in
  let mem = Darsie_emu.Memory.create () in
  let params =
    Array.init nparams (fun _ ->
        let b = Darsie_emu.Memory.alloc mem 65536 in
        Darsie_emu.Memory.write_i32s mem b (Array.init 16384 (fun i -> i));
        b)
  in
  let launch = Kernel.launch k ~grid ~block ~params in
  (Kinfo.make ~warp_size:32 launch, Darsie_trace.Record.generate mem launch)

(* Everything a run observably produces, as one canonical byte string:
   cycles, the full stats record, aggregate and per-SM stall attribution,
   per-PC bucket totals and the sampled counter time-series. *)
let result_fingerprint (r : Gpu.result) =
  let render kvs =
    String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) kvs)
  in
  let assoc a = render (Obs.Attrib.to_assoc a) in
  String.concat "\n"
    ([ Printf.sprintf "cycles=%d" r.Gpu.cycles;
       render (Darsie_harness.Stats_util.to_assoc r.Gpu.stats);
       assoc r.Gpu.attribution ]
    @ List.map assoc (Array.to_list r.Gpu.per_sm_attribution)
    @ List.map
        (fun p -> assoc (Obs.Pcstat.bucket_totals p))
        (Array.to_list r.Gpu.per_sm_pcstat)
    @ [ Obs.Export.csv_of_series r.Gpu.series ])

(* Run both ways, demand the attribution invariant holds under bulk
   charging, and return the (identical) pair for scenario assertions. *)
let run_both ?(cfg = Config.default) ?(engine = Engine.base_factory)
    ?sample_interval (kinfo, trace) =
  let go cfg =
    let r = Gpu.run_exn ~cfg ?sample_interval ~pcstat:true engine kinfo trace in
    (match Gpu.check_attribution r with
    | Ok () -> ()
    | Error msg -> Alcotest.failf "attribution invariant: %s" msg);
    r
  in
  let on = go cfg in
  let off = go (ff_off cfg) in
  check_string "fast-forward on/off fingerprints"
    (result_fingerprint off) (result_fingerprint on);
  (on, off)

(* A single dependent load: the SM idles for the whole DRAM round trip
   with nothing else runnable, so the jump must land exactly on the
   writeback cycle (and the three idle SMs exercise lazy catch-up). *)
let dram_kernel =
  {|
.kernel dram
.params 1
  mul.lo.u32 %r0, %tid.x, 4;
  add.u32 %r1, %r0, %param0;
  ld.global.u32 %r2, [%r1+0];
  add.u32 %r3, %r2, 1;
  exit;
|}

let test_dram_return () =
  let on, _ = run_both (prep dram_kernel ~nparams:1) in
  let mem_pending =
    List.assoc "mem_pending" (Obs.Attrib.to_assoc on.Gpu.attribution)
  in
  check_bool "scenario has a DRAM-bound span to jump" true
    (mem_pending > Config.default.Config.l1_lat)

let barrier_kernel =
  {|
.kernel barr
  mov.u32 %r0, %tid.x;
  bar.sync;
  add.u32 %r1, %r0, 1;
  exit;
|}

let test_barrier_release () =
  (* 4 warps per TB: once all arrive, the only pending event is the
     barrier-release timer (barrier_lat cycles out) *)
  let on, _ =
    run_both (prep ~grid:(Kernel.dim3 2) ~block:(Kernel.dim3 128)
                barrier_kernel ~nparams:0)
  in
  check_bool "scenario has barrier stalls to jump" true
    (on.Gpu.stats.Stats.barrier_stall_cycles > 0)

let test_tb_launch_boundary () =
  (* many more TBs than slots: retirement frees a slot mid-stall and the
     next TB must launch at exactly the stepped-mode cycle *)
  let on, _ =
    run_both (prep ~grid:(Kernel.dim3 64) dram_kernel ~nparams:1)
  in
  check_bool "TB turnover happened" true (on.Gpu.cycles > 200)

let test_sampling_boundary () =
  (* interval far below the DRAM latency: jumps would cross sampling
     boundaries unless the wake computation fences on them *)
  ignore
    (run_both ~sample_interval:16
       (prep ~grid:(Kernel.dim3 8) dram_kernel ~nparams:1))

(* ------------------------------------------------------------------ *)
(* Error paths: same failure at the same cycle, on or off              *)
(* ------------------------------------------------------------------ *)

(* An engine that never lets any warp fetch: no wake-up event ever
   arrives, so fast-forward must keep stepping and leave the deadlock to
   the watchdog. *)
let stuck_factory ki cfg stats =
  let e = Engine.base_factory ki cfg stats in
  {
    e with
    Engine.on_tb_launch =
      (fun ~tb_slot:_ ~warps ->
        Array.iter (fun w -> w.Engine.fetch_ok <- false) warps);
  }

let test_watchdog_still_fires () =
  let kinfo, trace = prep dram_kernel ~nparams:1 in
  let cfg = { Config.default with Config.watchdog_cycles = 200 } in
  let go cfg =
    match Gpu.run ~cfg stuck_factory kinfo trace with
    | Error (Sim_error.Deadlock { message; diag }) ->
      (message, diag.Sim_error.d_cycle, diag.Sim_error.d_attribution)
    | Ok _ -> Alcotest.fail "stuck engine should deadlock"
    | Error e ->
      Alcotest.failf "expected deadlock, got %s" (Sim_error.kind_name e)
  in
  let msg_on, cyc_on, attr_on = go cfg in
  let msg_off, cyc_off, attr_off = go (ff_off cfg) in
  check_string "same deadlock message" msg_off msg_on;
  check_int "same failing cycle" cyc_off cyc_on;
  check_bool "same attribution at failure" true (attr_off = attr_on)

let test_cycle_bound_fence () =
  (* bound far below the DRAM stall: the jump must be capped so the
     bound trips at exactly the stepped-mode cycle with a fully charged
     attribution *)
  let kinfo, trace = prep dram_kernel ~nparams:1 in
  let cfg =
    { Config.default with Config.watchdog_cycles = 0; max_cycles = 100 }
  in
  let go cfg =
    match Gpu.run ~cfg Engine.base_factory kinfo trace with
    | Error (Sim_error.Cycle_bound { bound; diag; _ }) ->
      (bound, diag.Sim_error.d_cycle, diag.Sim_error.d_attribution)
    | Ok _ -> Alcotest.fail "should hit the cycle bound"
    | Error e ->
      Alcotest.failf "expected cycle_bound, got %s" (Sim_error.kind_name e)
  in
  let b_on, c_on, a_on = go cfg in
  let b_off, c_off, a_off = go (ff_off cfg) in
  check_int "same bound" b_off b_on;
  check_int "same failing cycle" c_off c_on;
  check_bool "same attribution at failure" true (a_off = a_on)

(* ------------------------------------------------------------------ *)
(* Bulk-charge primitives                                              *)
(* ------------------------------------------------------------------ *)

let buckets =
  [ Obs.Attrib.Active; Obs.Attrib.Fetch_starved; Obs.Attrib.Scoreboard;
    Obs.Attrib.Barrier; Obs.Attrib.Darsie_sync; Obs.Attrib.Mem_pending;
    Obs.Attrib.Idle ]

let test_bump_n () =
  let bulk = Obs.Attrib.create () and unit = Obs.Attrib.create () in
  List.iteri
    (fun i b ->
      Obs.Attrib.bump_n bulk b (i + 3);
      for _ = 1 to i + 3 do
        Obs.Attrib.bump unit b
      done)
    buckets;
  check_bool "bump_n n = n x bump" true
    (Obs.Attrib.to_assoc bulk = Obs.Attrib.to_assoc unit);
  check_int "total" (Obs.Attrib.total unit) (Obs.Attrib.total bulk)

let test_charge_n () =
  let bulk = Obs.Pcstat.create ~n:4 and unit = Obs.Pcstat.create ~n:4 in
  Obs.Pcstat.charge_n bulk ~pc:2 Obs.Attrib.Mem_pending ~n:7;
  for _ = 1 to 7 do
    Obs.Pcstat.charge unit ~pc:2 Obs.Attrib.Mem_pending
  done;
  check_bool "charge_n n = n x charge" true
    (Obs.Attrib.to_assoc (Obs.Pcstat.bucket_totals bulk)
    = Obs.Attrib.to_assoc (Obs.Pcstat.bucket_totals unit))

(* ------------------------------------------------------------------ *)
(* Whole-suite differential: all 13 apps x all 7 machines              *)
(* ------------------------------------------------------------------ *)

let all_machines =
  [ Darsie_harness.Suite.Base; Darsie_harness.Suite.Uv;
    Darsie_harness.Suite.Dac_ideal; Darsie_harness.Suite.Darsie;
    Darsie_harness.Suite.Darsie_ignore_store;
    Darsie_harness.Suite.Darsie_no_cf_sync;
    Darsie_harness.Suite.Silicon_sync ]

let matrix_cells m =
  let module Suite = Darsie_harness.Suite in
  List.concat_map
    (fun (app : Suite.app) ->
      List.map
        (fun machine ->
          let abbr = app.Suite.workload.W.abbr in
          let r = Suite.get m abbr machine in
          (match Gpu.check_attribution r.Suite.gpu with
          | Ok () -> ()
          | Error msg -> Alcotest.failf "%s: %s" abbr msg);
          ( Printf.sprintf "%s/%s" abbr (Suite.machine_name machine),
            J.to_string (Darsie_harness.Metrics.of_run ~app:abbr r) ))
        all_machines)
    m.Suite.apps

(* The metrics document deliberately echoes the machine configuration,
   including the fast-forward flag itself ([machine_config.fast_forward]);
   the on/off identity contract covers every simulated field, so the
   echo is normalized away before comparing. *)
let normalize_ff s =
  let sub = {|"fast_forward":false|} and by = {|"fast_forward":true|} in
  let n = String.length s and m = String.length sub in
  let b = Buffer.create n in
  let i = ref 0 in
  while !i < n do
    if !i + m <= n && String.sub s !i m = sub then begin
      Buffer.add_string b by;
      i := !i + m
    end
    else begin
      Buffer.add_char b s.[!i];
      incr i
    end
  done;
  Buffer.contents b

(* On mismatch, fail with the cell name and a window around the first
   differing byte instead of dumping two multi-kilobyte JSON documents. *)
let check_cell name off on =
  if off <> on then begin
    let n = min (String.length off) (String.length on) in
    let i = ref 0 in
    while !i < n && off.[!i] = on.[!i] do
      incr i
    done;
    let window s =
      let lo = max 0 (!i - 60) in
      String.sub s lo (min 140 (String.length s - lo))
    in
    Alcotest.failf "%s diverges at byte %d:\n  off: %s\n  on:  %s" name !i
      (window off) (window on)
  end

let test_suite_differential () =
  let jobs = Darsie_harness.Parallel.default_jobs () in
  let build cfg =
    Darsie_harness.Suite.build_matrix ~cfg ~machines:all_machines ~jobs ()
  in
  let m_off = build (ff_off Config.default) in
  let m_on = build Config.default in
  List.iter2
    (fun (name, off) (_, on) -> check_cell name (normalize_ff off) on)
    (matrix_cells m_off) (matrix_cells m_on);
  let fig8 m =
    let _, _, _, text = Darsie_harness.Figures.fig8 m in
    text
  in
  check_string "fig8 byte-identical with fast-forward on and off"
    (fig8 m_off) (fig8 m_on)

let () =
  Alcotest.run "fastforward"
    [
      ( "fences",
        [
          Alcotest.test_case "dram return" `Quick test_dram_return;
          Alcotest.test_case "barrier release" `Quick test_barrier_release;
          Alcotest.test_case "tb launch boundary" `Quick
            test_tb_launch_boundary;
          Alcotest.test_case "sampling boundary" `Quick test_sampling_boundary;
        ] );
      ( "error-paths",
        [
          Alcotest.test_case "watchdog still fires" `Quick
            test_watchdog_still_fires;
          Alcotest.test_case "cycle bound" `Quick test_cycle_bound_fence;
        ] );
      ( "primitives",
        [
          Alcotest.test_case "attrib bump_n" `Quick test_bump_n;
          Alcotest.test_case "pcstat charge_n" `Quick test_charge_n;
        ] );
      ( "differential",
        [
          Alcotest.test_case "13 apps x 7 machines" `Quick
            test_suite_differential;
        ] );
    ]
