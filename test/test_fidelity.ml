(* Fidelity-knob tests: dual-issue fetch bundles ([Config.issue_width]),
   per-warp MSHR limits ([Config.mshrs]) and shared-memory bank-conflict
   replay ([Config.smem_banks]). Each knob is checked three ways: a
   crafted kernel with a hand-computed expectation, the attribution
   conservation invariant at the non-default setting, and fast-forward
   on/off bit-identity — capped by the full 13-app x 7-machine matrix
   differential at a combined non-default machine point. *)

open Darsie_isa
open Darsie_timing
module Obs = Darsie_obs
module Suite = Darsie_harness.Suite
module W = Darsie_workloads.Workload
module J = Darsie_obs.Json

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

let ff_off cfg = { cfg with Config.fast_forward = false }

let prep ?(grid = Kernel.dim3 1) ?(block = Kernel.dim3 32)
    ?(shared_bytes = 0) ktext ~nparams =
  let k = Parser.parse_kernel ktext in
  let k = { k with Kernel.shared_bytes } in
  let mem = Darsie_emu.Memory.create () in
  let params =
    Array.init nparams (fun _ ->
        let b = Darsie_emu.Memory.alloc mem 65536 in
        Darsie_emu.Memory.write_i32s mem b (Array.init 16384 (fun i -> i));
        b)
  in
  let launch = Kernel.launch k ~grid ~block ~params in
  (Kinfo.make ~warp_size:32 launch, Darsie_trace.Record.generate mem launch)

(* Run with fast-forward on and off, demand the attribution invariant
   and bit-identical cycle counts both ways, return the result. *)
let run_both ?(cfg = Config.default) (kinfo, trace) =
  let go cfg =
    let r =
      Gpu.run_exn ~cfg ~pcstat:true Engine.base_factory kinfo trace
    in
    (match Gpu.check_attribution r with
    | Ok () -> ()
    | Error msg -> Alcotest.failf "attribution invariant: %s" msg);
    r
  in
  let on = go cfg in
  let off = go (ff_off cfg) in
  check_int "fast-forward on/off cycles" off.Gpu.cycles on.Gpu.cycles;
  check_bool "fast-forward on/off attribution" true
    (Obs.Attrib.to_assoc off.Gpu.attribution
    = Obs.Attrib.to_assoc on.Gpu.attribution);
  on

let bucket r name =
  List.assoc name (Obs.Attrib.to_assoc r.Gpu.attribution)

(* ------------------------------------------------------------------ *)
(* Dual-issue fetch                                                     *)
(* ------------------------------------------------------------------ *)

(* One warp, a chain of mutually independent ALU ops: single fetch
   feeds the two issue slots at most one instruction per cycle, so the
   frontend is the bottleneck and doubling the bundle width must
   strictly help. *)
let alu_kernel =
  let ops =
    List.init 24 (fun i -> Printf.sprintf "  add.u32 %%r%d, %%r0, %d;" (i + 1) i)
  in
  ".kernel alu\n  mov.u32 %r0, %tid.x;\n"
  ^ String.concat "\n" ops ^ "\n  exit;\n"

let test_dual_issue_ipc () =
  let single = run_both (prep alu_kernel ~nparams:0) in
  let dual =
    run_both ~cfg:{ Config.default with Config.issue_width = 2 }
      (prep alu_kernel ~nparams:0)
  in
  check_bool
    (Printf.sprintf "dual-issue is faster on a fetch-bound kernel (%d < %d)"
       dual.Gpu.cycles single.Gpu.cycles)
    true
    (dual.Gpu.cycles < single.Gpu.cycles)

(* ------------------------------------------------------------------ *)
(* Per-warp MSHRs                                                       *)
(* ------------------------------------------------------------------ *)

(* One warp, four independent global loads to distinct lines: with
   unlimited MSHRs they all overlap; with a single MSHR each must wait
   for the previous writeback, and every blocked scoreboard-ready cycle
   lands in the [mem_struct] bucket. *)
let mlp_kernel =
  {|
.kernel mlp
.params 1
  mul.lo.u32 %r0, %tid.x, 4;
  add.u32 %r1, %r0, %param0;
  ld.global.u32 %r2, [%r1+0];
  ld.global.u32 %r3, [%r1+512];
  ld.global.u32 %r4, [%r1+1024];
  ld.global.u32 %r5, [%r1+2048];
  add.u32 %r6, %r2, %r3;
  exit;
|}

let test_mshr_saturation () =
  let free = run_both (prep mlp_kernel ~nparams:1) in
  let capped =
    run_both ~cfg:{ Config.default with Config.mshrs = 1 }
      (prep mlp_kernel ~nparams:1)
  in
  check_int "unlimited MSHRs never charge mem_struct" 0
    (bucket free "mem_struct");
  check_bool "single MSHR serializes the misses" true
    (capped.Gpu.cycles > free.Gpu.cycles);
  check_bool "blocked cycles land in mem_struct" true
    (bucket capped "mem_struct" > 0)

(* ------------------------------------------------------------------ *)
(* Bank-conflict replay                                                 *)
(* ------------------------------------------------------------------ *)

(* Every lane stores to word [tid.x * 32]: all 32 words of a warp map
   to bank 0, so one store serializes into 31 replay passes. Two warps
   make the hand-computed total 2 x 31 = 62. *)
let conflict_kernel =
  {|
.kernel conflict
  mul.lo.u32 %r0, %tid.x, 128;
  st.shared.u32 [%r0], %r0;
  exit;
|}

let test_bank_conflict_replay () =
  let p () =
    prep ~block:(Kernel.dim3 64) ~shared_bytes:8192 conflict_kernel
      ~nparams:0
  in
  let off = run_both (p ()) in
  let on =
    run_both ~cfg:{ Config.default with Config.smem_banks = 32 } (p ())
  in
  check_int "replay counter off by default" 0
    off.Gpu.stats.Stats.smem_replay_cycles;
  check_int "31 replay cycles per fully-conflicted warp store" 62
    on.Gpu.stats.Stats.smem_replay_cycles;
  check_int "legacy conflict counter agrees" 62
    on.Gpu.stats.Stats.shared_bank_conflicts

(* ------------------------------------------------------------------ *)
(* Machine-config echo                                                  *)
(* ------------------------------------------------------------------ *)

(* Every knob in [Config.knobs] round-trips into the metrics document's
   [machine_config] object, and the document still validates. *)
let test_machine_config_echo () =
  let app = Suite.load_app ~scale:1 (List.hd Darsie_workloads.Registry.all) in
  let cfg =
    { Config.default with Config.issue_width = 2; mshrs = 4; smem_banks = 32 }
  in
  let r = Suite.run_app ~cfg app Suite.Base in
  let doc = Darsie_harness.Metrics.of_run ~app:app.Suite.workload.W.abbr r in
  (match Darsie_harness.Metrics.validate doc with
  | Ok () -> ()
  | Error e -> Alcotest.failf "metrics validate: %s" e);
  let mc =
    match J.member "machine_config" doc with
    | Some m -> m
    | None -> Alcotest.fail "metrics document lacks machine_config"
  in
  List.iter
    (fun (name, v) ->
      match J.member name mc with
      | Some j ->
        check_int
          (Printf.sprintf "machine_config.%s" name)
          v
          (Option.value ~default:min_int (J.to_int j))
      | None -> Alcotest.failf "machine_config lacks %s" name)
    (Config.knobs cfg)

(* ------------------------------------------------------------------ *)
(* Sensitivity sweep                                                    *)
(* ------------------------------------------------------------------ *)

let test_sensitivity_sweep () =
  let module Sens = Darsie_harness.Sensitivity in
  let apps =
    match Darsie_workloads.Registry.all with
    | a :: b :: _ -> [ a; b ]
    | _ -> Alcotest.fail "registry too small"
  in
  let t =
    Sens.run ~apps ~issue_widths:[ 1; 2 ] ~mshr_limits:[ 1 ]
      ~smem_banks:32 ()
  in
  check_int "one cell per swept point" 2 (List.length t.Sens.cells);
  check_int "one speedup per app per cell" 2
    (List.length (List.hd t.Sens.cells).Sens.speedups);
  (match Darsie_harness.Metrics.validate (Sens.to_json t) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "sensitivity validate: %s" e);
  (* renderer smoke: the table closes with the geomean row *)
  check_bool "render carries the GMEAN row" true
    (let s = Sens.render t in
     let n = String.length s and m = String.length "GMEAN" in
     let rec scan i = i + m <= n && (String.sub s i m = "GMEAN" || scan (i + 1)) in
     scan 0)

(* ------------------------------------------------------------------ *)
(* Full matrix at a combined non-default machine point                  *)
(* ------------------------------------------------------------------ *)

let all_machines =
  [ Suite.Base; Suite.Uv; Suite.Dac_ideal; Suite.Darsie;
    Suite.Darsie_ignore_store; Suite.Darsie_no_cf_sync; Suite.Silicon_sync ]

let matrix_cells m =
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

let test_matrix_at_knobs () =
  let cfg =
    { Config.default with Config.issue_width = 2; mshrs = 1; smem_banks = 32 }
  in
  let jobs = Darsie_harness.Parallel.default_jobs () in
  let build cfg = Suite.build_matrix ~cfg ~machines:all_machines ~jobs () in
  let m_off = build (ff_off cfg) in
  let m_on = build cfg in
  (* the document echoes the fast-forward flag itself; normalize it so
     the comparison covers only simulated fields *)
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
  in
  List.iter2
    (fun (name, off) (_, on) ->
      let off = normalize_ff off in
      if off <> on then begin
        let n = min (String.length off) (String.length on) in
        let i = ref 0 in
        while !i < n && off.[!i] = on.[!i] do
          incr i
        done;
        let window s =
          let lo = max 0 (!i - 80) in
          String.sub s lo (min 180 (String.length s - lo))
        in
        Alcotest.failf "%s diverges at byte %d:\n  off: %s\n  on:  %s" name !i
          (window off) (window on)
      end)
    (matrix_cells m_off) (matrix_cells m_on)

let () =
  Alcotest.run "fidelity"
    [
      ( "knobs",
        [
          Alcotest.test_case "dual-issue IPC ordering" `Quick
            test_dual_issue_ipc;
          Alcotest.test_case "MSHR saturation" `Quick test_mshr_saturation;
          Alcotest.test_case "bank-conflict replay" `Quick
            test_bank_conflict_replay;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "machine_config echo" `Quick
            test_machine_config_echo;
          Alcotest.test_case "sensitivity sweep" `Quick test_sensitivity_sweep;
        ] );
      ( "matrix",
        [
          Alcotest.test_case "13 apps x 7 machines at non-default knobs"
            `Quick test_matrix_at_knobs;
        ] );
    ]
