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
   and identical simulated outputs both ways, return the result. *)
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
  (match Gpu.first_difference ~labels:("off", "on") off on with
  | Some d -> Alcotest.failf "fast-forward on/off: %s" d.Gpu.report
  | None -> ());
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

let knob_cfg =
  { Config.default with Config.issue_width = 2; mshrs = 1; smem_banks = 32 }

(* Built once: the fast-forward differential and the pins below share it. *)
let knob_matrices =
  lazy
    (let jobs = Darsie_harness.Parallel.default_jobs () in
     let build cfg = Suite.build_matrix ~cfg ~machines:all_machines ~jobs () in
     let m_off = build (ff_off knob_cfg) in
     (m_off, build knob_cfg))

let test_matrix_at_knobs () =
  let m_off, m_on = Lazy.force knob_matrices in
  List.iter
    (fun (app : Suite.app) ->
      let abbr = app.Suite.workload.W.abbr in
      List.iter
        (fun machine ->
          let cell = abbr ^ "/" ^ Suite.machine_name machine in
          let gpu m = (Suite.get m abbr machine).Suite.gpu in
          (match
             Gpu.first_difference ~labels:("off", "on") (gpu m_off)
               (gpu m_on)
           with
          | Some d -> Alcotest.failf "%s: %s" cell d.Gpu.report
          | None -> ());
          match Gpu.check_attribution (gpu m_on) with
          | Ok () -> ()
          | Error msg -> Alcotest.failf "%s: %s" cell msg)
        all_machines)
    m_on.Suite.apps

(* ------------------------------------------------------------------ *)
(* Pinned simulated outputs off the default machine                     *)
(* ------------------------------------------------------------------ *)

(* The digest of one run over the fields perfbench's exact-output gate
   covers: cycles, every Stats counter, the stall attribution and the
   skip ledger, aggregate and per SM; plus each SM's per-PC profile
   when the run had one. *)
let digest_of (r : Gpu.result) =
  let b = Buffer.create 4096 in
  let kv (k, v) = Printf.bprintf b "%s=%d;" k v in
  let stats s = List.iter kv (Stats.to_assoc s) in
  let attr a = List.iter kv (Obs.Attrib.to_assoc a) in
  Printf.bprintf b "cycles=%d;" r.Gpu.cycles;
  stats r.Gpu.stats;
  Array.iter stats r.Gpu.per_sm;
  attr r.Gpu.attribution;
  Array.iter attr r.Gpu.per_sm_attribution;
  Buffer.add_string b (J.to_string (Obs.Ledger.to_json r.Gpu.ledger));
  Array.iter
    (fun p -> Buffer.add_string b (J.to_string (Obs.Pcstat.to_json p)))
    r.Gpu.per_sm_pcstat;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Compare (cell, digest) pairs against pins recorded before the cycle
   loop's allocation-free rewrite. A moved pin is a changed simulated
   output: never re-record these to get a pass. *)
let check_pins pins cells =
  let moved =
    List.filter_map
      (fun (name, got) ->
        match List.assoc_opt name pins with
        | Some want when want = got -> None
        | Some want ->
          Some (Printf.sprintf "%s: pinned %s, got %s" name want got)
        | None -> Some (Printf.sprintf "%s: no pin, got %s" name got))
      cells
  in
  if moved <> [] then Alcotest.failf "%s" (String.concat "\n" moved);
  check_int "one pin per cell" (List.length pins) (List.length cells)

let knob_pins =
  [
    ("BIN/BASE", "e0ed5113611142010157531ea946abf3");
    ("BIN/UV", "cfd9127377e4b8b5d079b951d60789b3");
    ("BIN/DAC-IDEAL", "3bebc13bd552d931bb8f882fb4a051ab");
    ("BIN/DARSIE", "0a4c18ca04d5333134979eb9478a74b0");
    ("BIN/DARSIE-IGNORE-STORE", "784e2dc2275233ab98df6c41cd718151");
    ("BIN/DARSIE-NO-CF-SYNC", "ae36f74c0085dda598f4da1e8c50be38");
    ("BIN/SILICON-SYNC", "3451f9ab5204ccef38ba143cfe451b4f");
    ("PT/BASE", "61b98d78975bcf131e6735dbfc0e763f");
    ("PT/UV", "67dbef33e568f6e9f5d35b45f76f7b82");
    ("PT/DAC-IDEAL", "cdc7d99ab025060fdf0295bb3263c913");
    ("PT/DARSIE", "c39bd8aa4a0cb16d261efbdfe979b531");
    ("PT/DARSIE-IGNORE-STORE", "c39bd8aa4a0cb16d261efbdfe979b531");
    ("PT/DARSIE-NO-CF-SYNC", "e08c26c958db6550a095df3cc68034ea");
    ("PT/SILICON-SYNC", "cc61235011afde034d8e1842452ded81");
    ("FW/BASE", "62bf37448955105c2766fed8332451ff");
    ("FW/UV", "2d4d277cc71a7c9690e24dc724920468");
    ("FW/DAC-IDEAL", "7d24df88dfa97bea229a26e2ab9fd43f");
    ("FW/DARSIE", "543e80ba8d1a6a32b9b08c8a4ad7bf80");
    ("FW/DARSIE-IGNORE-STORE", "543e80ba8d1a6a32b9b08c8a4ad7bf80");
    ("FW/DARSIE-NO-CF-SYNC", "03f3eb31274ffdba0f5b8160ddc29b4b");
    ("FW/SILICON-SYNC", "7e0123d24600449ad5e1aa8ac41441a9");
    ("SR1/BASE", "efa51844d12e96798304b18188fd8aa8");
    ("SR1/UV", "771cceb8f28379a0970d8aa0871526b2");
    ("SR1/DAC-IDEAL", "c47acc2f6842cf46374769a9ca1674c5");
    ("SR1/DARSIE", "6ee8dd5c70b31671587e1db58d4436a1");
    ("SR1/DARSIE-IGNORE-STORE", "6ee8dd5c70b31671587e1db58d4436a1");
    ("SR1/DARSIE-NO-CF-SYNC", "71b9953890ab292b04e580ae3e14da51");
    ("SR1/SILICON-SYNC", "efa51844d12e96798304b18188fd8aa8");
    ("LIB/BASE", "8caea1ab9c6804486f220130a67e91e1");
    ("LIB/UV", "956092de19d9715551fadf55887d2547");
    ("LIB/DAC-IDEAL", "20634bd484ad3d648f9d117914043f1d");
    ("LIB/DARSIE", "7308254e86d64937c365d304e283f9c2");
    ("LIB/DARSIE-IGNORE-STORE", "7308254e86d64937c365d304e283f9c2");
    ("LIB/DARSIE-NO-CF-SYNC", "d321b854f0a330a1d146a27ff57fffe9");
    ("LIB/SILICON-SYNC", "d9616c7b410e31bf5c300699248bbb61");
    ("IMNLM/BASE", "b86e26333e6495d1045dad3195f8ec74");
    ("IMNLM/UV", "e91ffadf858d189f44f714f85addccd4");
    ("IMNLM/DAC-IDEAL", "445affc10bb176d05cd986622db2db01");
    ("IMNLM/DARSIE", "cd674002dcc6bb8f541e8b0286a27ab4");
    ("IMNLM/DARSIE-IGNORE-STORE", "cd674002dcc6bb8f541e8b0286a27ab4");
    ("IMNLM/DARSIE-NO-CF-SYNC", "3974810d30cc91ae48e2d51acc4e8580");
    ("IMNLM/SILICON-SYNC", "b86e26333e6495d1045dad3195f8ec74");
    ("BP/BASE", "3fa62728540f17b593bbfde74a831a4f");
    ("BP/UV", "eb0c9d441d751ebca925a66f56123387");
    ("BP/DAC-IDEAL", "62d1106ee118623f8e20f930394928d1");
    ("BP/DARSIE", "43d516ee8d14998c92dc4c14cc4dde34");
    ("BP/DARSIE-IGNORE-STORE", "748883206956848797da6b542d6dc3da");
    ("BP/DARSIE-NO-CF-SYNC", "e01a559fbf615b4fb6e28bccb0938368");
    ("BP/SILICON-SYNC", "f1d1db298898a24b2f049ba48b9ac4f8");
    ("DCT8x8/BASE", "e1b4e9c4d485fa53a4c7c687381f4f9f");
    ("DCT8x8/UV", "a9e2a0045b325e4be032cd5c483f3fd4");
    ("DCT8x8/DAC-IDEAL", "7d98ac4050678f855fbc68227efaa7ff");
    ("DCT8x8/DARSIE", "5a4434a7eca19de4ffd459ea9b77055a");
    ("DCT8x8/DARSIE-IGNORE-STORE", "16877d5e2760e0715a40561c14424012");
    ("DCT8x8/DARSIE-NO-CF-SYNC", "a119ecf64a8d8e1db1d64cc973dee667");
    ("DCT8x8/SILICON-SYNC", "e1b4e9c4d485fa53a4c7c687381f4f9f");
    ("FWS/BASE", "f584da39b41bdbb20393e632c4f87ece");
    ("FWS/UV", "a35a202a52e595de9395f1453c51d1b2");
    ("FWS/DAC-IDEAL", "70d0940b41918a24e655a41ae4ac0ecc");
    ("FWS/DARSIE", "50a167693ce8df4917a2419929c123ba");
    ("FWS/DARSIE-IGNORE-STORE", "50a167693ce8df4917a2419929c123ba");
    ("FWS/DARSIE-NO-CF-SYNC", "f2b7ae2f17f1feafa6561dc6982198eb");
    ("FWS/SILICON-SYNC", "f584da39b41bdbb20393e632c4f87ece");
    ("HS/BASE", "798ce0e8c8dcf75639231a259ac1596c");
    ("HS/UV", "8c9311163f65e8f167e49a94ea73b959");
    ("HS/DAC-IDEAL", "a47958f423b92e6ae1f9e3cc802ef7aa");
    ("HS/DARSIE", "eb56cfb4b9d202b95c8eb47704b88a7a");
    ("HS/DARSIE-IGNORE-STORE", "eb56cfb4b9d202b95c8eb47704b88a7a");
    ("HS/DARSIE-NO-CF-SYNC", "6896a1e443fe8228f96352128d9f1ed7");
    ("HS/SILICON-SYNC", "798ce0e8c8dcf75639231a259ac1596c");
    ("CP/BASE", "e25b0dee4488cf0d4211afe2df6a62d8");
    ("CP/UV", "1ad231a9ec70b993bf5568b25a813e1e");
    ("CP/DAC-IDEAL", "be410c6441cdc352a459a5ee63bf7b68");
    ("CP/DARSIE", "a9f9c1ddb016437c2819fc0614f48757");
    ("CP/DARSIE-IGNORE-STORE", "a9f9c1ddb016437c2819fc0614f48757");
    ("CP/DARSIE-NO-CF-SYNC", "0329b07fe3320f36e6fdc394d813f5dc");
    ("CP/SILICON-SYNC", "64bd1bfa36debc93f713eac477852c55");
    ("CONVTEX/BASE", "d75896ad715dca7638ab35d370ffcd6f");
    ("CONVTEX/UV", "064e551fc8b803a3d6eea9a34a6b7bfe");
    ("CONVTEX/DAC-IDEAL", "9d5781dc7b2fa6b7f274ff54574a5bea");
    ("CONVTEX/DARSIE", "afc70d711ae445657c087d5107520c5e");
    ("CONVTEX/DARSIE-IGNORE-STORE", "afc70d711ae445657c087d5107520c5e");
    ("CONVTEX/DARSIE-NO-CF-SYNC", "171ba2a1132d0c39c2cec225ab7fdd4b");
    ("CONVTEX/SILICON-SYNC", "d75896ad715dca7638ab35d370ffcd6f");
    ("MM/BASE", "ce2082ea7fc26fb57a456514a90fd084");
    ("MM/UV", "9048eb512df39910708aed082bfe695d");
    ("MM/DAC-IDEAL", "bbfbe7d1dee8b23087321b50231fd703");
    ("MM/DARSIE", "000f98a8cd6b106b5c5040696a45502a");
    ("MM/DARSIE-IGNORE-STORE", "000f98a8cd6b106b5c5040696a45502a");
    ("MM/DARSIE-NO-CF-SYNC", "472920e19549fd012d5583006c82188e");
    ("MM/SILICON-SYNC", "359662a500de5c5bd6999e6c682f1966");
  ]

let test_knob_matrix_pinned () =
  let _, m_on = Lazy.force knob_matrices in
  check_pins knob_pins
    (List.concat_map
       (fun (app : Suite.app) ->
         let abbr = app.Suite.workload.W.abbr in
         List.map
           (fun machine ->
             ( Printf.sprintf "%s/%s" abbr (Suite.machine_name machine),
               digest_of (Suite.get m_on abbr machine).Suite.gpu ))
           all_machines)
       m_on.Suite.apps)

let lrr_pins =
  [
    ("BIN/BASE", "fbe0af02eedf29d7fccad26eae461794");
    ("BIN/DARSIE", "b5b4949f7a2b5e8246d2594ff0dc0b05");
    ("PT/BASE", "72ce3c73b5dc4f0f524d67ad934e3992");
    ("PT/DARSIE", "2c4e22443fbc78a401299c374cc1c9fb");
    ("FW/BASE", "a89b23dec1177649284e86889c378096");
    ("FW/DARSIE", "7ae5d326e6b53308acade08ce1c4c858");
    ("SR1/BASE", "52f53fb4a1ee41b6c42db049536e0e1d");
    ("SR1/DARSIE", "0da2d8bdf082df02c25b5fd2f023bbbd");
    ("LIB/BASE", "d503d867fb44ae807cbc4c310121b181");
    ("LIB/DARSIE", "ef4daa4ff586cf27ed25f8ec49e1b7e7");
    ("IMNLM/BASE", "a014571e9e0be4bb27901f4fa716d8f1");
    ("IMNLM/DARSIE", "9a39620e5a507c201333da35622c1341");
    ("BP/BASE", "07fbec8110c632e4ce9b6febf5cb9488");
    ("BP/DARSIE", "f968da6dc9197812cec17acc99808591");
    ("DCT8x8/BASE", "b352604ebbe4e671ae9448b9fcd821d0");
    ("DCT8x8/DARSIE", "f323d03bb08642cfb61248199efd5944");
    ("FWS/BASE", "4db96214f7b8a1a534523a43956ef0e1");
    ("FWS/DARSIE", "c7c685c3a4556191a26a6e67d03631d4");
    ("HS/BASE", "c57285162480f814cc8c11d51de72f56");
    ("HS/DARSIE", "6a5198f86a84a816c470d03f93904e31");
    ("CP/BASE", "72eef7bdf7868b9c9ba88e9178bfe61d");
    ("CP/DARSIE", "985b01dd0844e35df62e28dd00ff1508");
    ("CONVTEX/BASE", "b18a25b65ff5f22c8933f453c4f1be94");
    ("CONVTEX/DARSIE", "28c0dd2d1459b9ecf62530fcdb068ab9");
    ("MM/BASE", "30f6d611247ef10a2a63854e71f26773");
    ("MM/DARSIE", "456ff7928c5861fe6f03c944455c7934");
  ]

(* LRR is otherwise checked only by a relation to GTO; per-PC profiling
   on covers the deferred stall blame behind pending DRAM requests. *)
let test_lrr_pinned () =
  let _, m_on = Lazy.force knob_matrices in
  let cfg = { Config.default with Config.scheduler = Config.Lrr } in
  check_pins lrr_pins
    (List.concat_map
       (fun (app : Suite.app) ->
         List.map
           (fun machine ->
             let r = Suite.run_app ~cfg ~pcstat:true app machine in
             ( Printf.sprintf "%s/%s" app.Suite.workload.W.abbr
                 (Suite.machine_name machine),
               digest_of r.Suite.gpu ))
           [ Suite.Base; Suite.Darsie ])
       m_on.Suite.apps)

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
          Alcotest.test_case "knob matrix pinned" `Quick
            test_knob_matrix_pinned;
          Alcotest.test_case "13 apps x {BASE, DARSIE} under LRR pinned"
            `Quick test_lrr_pinned;
        ] );
    ]
