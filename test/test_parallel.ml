(* Tests for the parallel suite runner and the functional-trace cache:
   the Parallel pool's ordering/isolation contract, schedule-independence
   of the merged matrix (the -j 1 vs -j 4 byte-identity the CLI relies
   on), and trace-cache hits producing identical figures. *)

open Darsie_harness
module W = Darsie_workloads.Workload
module J = Darsie_obs.Json

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

let check_string = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* The pool itself *)

let test_pool_order () =
  let items = List.init 100 Fun.id in
  let doubled = Parallel.map ~jobs:4 (fun x -> 2 * x) items in
  check_bool "results in input order" true
    (doubled = List.map (fun x -> 2 * x) items);
  check_bool "serial path agrees" true
    (Parallel.map ~jobs:1 (fun x -> 2 * x) items = doubled);
  check_int "empty input" 0 (List.length (Parallel.map ~jobs:4 Fun.id []));
  check_bool "default_jobs positive" true (Parallel.default_jobs () >= 1)

exception Boom of int

let test_pool_isolation () =
  let f x = if x mod 3 = 0 then raise (Boom x) else x in
  let outcomes = Parallel.run ~jobs:4 f [ 1; 2; 3; 4; 5; 6 ] in
  let expect =
    [ Ok 1; Ok 2; Error (Boom 3); Ok 4; Ok 5; Error (Boom 6) ]
  in
  check_bool "crashes poison only their slot" true (outcomes = expect);
  (* map re-raises the first failure in input order, whatever the
     schedule *)
  (match Parallel.map ~jobs:4 f [ 5; 3; 6; 1 ] with
  | _ -> Alcotest.fail "expected Boom"
  | exception Boom n -> check_int "first in input order" 3 n);
  (* jobs <= 1 never spawns and is fail-fast like List.map *)
  let ran = ref [] in
  (match
     Parallel.map ~jobs:1
       (fun x ->
         ran := x :: !ran;
         f x)
       [ 1; 3; 5 ]
   with
  | _ -> Alcotest.fail "expected Boom"
  | exception Boom n -> check_int "fail-fast" 3 n);
  check_bool "stopped at the failure" true (!ran = [ 3; 1 ])

(* ------------------------------------------------------------------ *)
(* Schedule-independence of the merged matrix *)

let small_apps =
  [ Darsie_workloads.Bin_opt.workload; Darsie_workloads.Matmul.workload ]

(* the machines Figures.fig8 and Figures.coverage read *)
let small_machines =
  [ Suite.Base; Suite.Uv; Suite.Dac_ideal; Suite.Darsie;
    Suite.Darsie_ignore_store ]

(* Everything the suite exports, as one canonical byte string: the
   per-cell metrics documents in deterministic order plus the rendered
   Fig. 8 geomeans and per-app redundancy coverage. *)
let matrix_fingerprint m =
  let cells =
    List.concat_map
      (fun (app : Suite.app) ->
        List.map
          (fun machine ->
            let abbr = app.Suite.workload.W.abbr in
            let r = Suite.get m abbr machine in
            J.to_string (Metrics.of_run ~app:abbr r))
          small_machines)
      m.Suite.apps
  in
  let _, _, _, fig8 = Figures.fig8 m in
  let _, _, coverage = Figures.coverage m in
  String.concat "\n" cells ^ "\n" ^ fig8 ^ coverage

let test_matrix_determinism () =
  let build jobs =
    Suite.build_matrix ~apps:small_apps ~machines:small_machines ~jobs ()
  in
  let serial = matrix_fingerprint (build 1) in
  let parallel = matrix_fingerprint (build 4) in
  check_string "metrics JSON + figures byte-identical at -j 1 and -j 4"
    serial parallel

let test_checker_determinism () =
  let strip_elapsed json =
    (* elapsed_s is wall-clock time and legitimately varies; every other
       field of the check report must not. *)
    match json with
    | J.Obj fields ->
      J.Obj
        (List.filter_map
           (fun (k, v) ->
             if k = "elapsed_s" then None
             else
               match v with
               | J.List apps ->
                 Some
                   ( k,
                     J.List
                       (List.map
                          (function
                            | J.Obj af ->
                              J.Obj
                                (List.filter
                                   (fun (k, _) -> k <> "elapsed_s")
                                   af)
                            | other -> other)
                          apps) )
               | _ -> Some (k, v))
           fields)
    | other -> other
  in
  let report jobs =
    Checker.check_suite ~jobs ~apps:small_apps ~inject:2 ~seed:11 ()
  in
  let j1 = J.to_string (strip_elapsed (Checker.to_json (report 1))) in
  let j4 = J.to_string (strip_elapsed (Checker.to_json (report 4))) in
  check_string "check report identical at -j 1 and -j 4" j1 j4

(* ------------------------------------------------------------------ *)
(* Trace cache *)

let with_tmp_cache f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "darsie-cache-test-%d" (Unix.getpid ()))
  in
  let rec rm path =
    if Sys.is_directory path then (
      Array.iter (fun e -> rm (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path)
    else Sys.remove path
  in
  if Sys.file_exists dir then rm dir;
  Fun.protect ~finally:(fun () -> if Sys.file_exists dir then rm dir)
    (fun () -> f (Darsie_trace.Cache.create ~dir ()))

let test_cache_roundtrip () =
  with_tmp_cache (fun cache ->
      let w = Darsie_workloads.Matmul.workload in
      let fresh = Suite.load_app w in
      let a1 = Suite.load_app ~cache w in
      check_int "first load misses" 1 (Darsie_trace.Cache.misses cache);
      check_int "first load stores" 1 (Darsie_trace.Cache.stores cache);
      let a2 = Suite.load_app ~cache w in
      check_int "second load hits" 1 (Darsie_trace.Cache.hits cache);
      (* the cached trace is the same data... *)
      check_int "total ops preserved"
        (Darsie_trace.Record.total_ops a1.Suite.trace)
        (Darsie_trace.Record.total_ops a2.Suite.trace);
      check_bool "ops byte-identical" true
        (a1.Suite.trace.Darsie_trace.Record.tbs
        = a2.Suite.trace.Darsie_trace.Record.tbs);
      (* ...and replaying it produces identical figures *)
      let cycles app machine =
        (Suite.run_app app machine).Suite.gpu.Darsie_timing.Gpu.cycles
      in
      check_int "BASE cycles identical from cache" (cycles fresh Suite.Base)
        (cycles a2 Suite.Base);
      check_int "DARSIE cycles identical from cache" (cycles fresh Suite.Darsie)
        (cycles a2 Suite.Darsie))

let test_cache_key_content () =
  let w = Darsie_workloads.Matmul.workload in
  let launch1 = (w.W.prepare ~scale:1).W.launch in
  let launch2 = (w.W.prepare ~scale:1).W.launch in
  let k1 = Darsie_trace.Cache.key ~name:w.W.abbr ~scale:1 launch1 in
  check_string "key is a function of content" k1
    (Darsie_trace.Cache.key ~name:w.W.abbr ~scale:1 launch2);
  check_bool "scale is part of the key" true
    (k1 <> Darsie_trace.Cache.key ~name:w.W.abbr ~scale:2 launch1);
  check_bool "name is part of the key" true
    (k1 <> Darsie_trace.Cache.key ~name:"other" ~scale:1 launch1)

let test_cache_corruption () =
  with_tmp_cache (fun cache ->
      let w = Darsie_workloads.Bin_opt.workload in
      let _ = Suite.load_app ~cache w in
      (* truncate the single entry to garbage *)
      let dir = Darsie_trace.Cache.dir cache in
      Array.iter
        (fun e ->
          let oc = open_out (Filename.concat dir e) in
          output_string oc "not a trace";
          close_out oc)
        (Sys.readdir dir);
      let a = Suite.load_app ~cache w in
      check_int "corrupt entry reads as a miss" 2
        (Darsie_trace.Cache.misses cache);
      check_int "and is regenerated" 2 (Darsie_trace.Cache.stores cache);
      check_bool "with a usable trace" true
        (Darsie_trace.Record.total_ops a.Suite.trace > 0))

(* The cache's failure paths, on BIN: each corrupt entry must read as a
   miss and be regenerated into a trace that replays to the cycles of a
   trace that never saw the cache. *)
let cache_app = Darsie_workloads.Bin_opt.workload

let darsie_cycles app =
  (Suite.run_app app Suite.Darsie).Suite.gpu.Darsie_timing.Gpu.cycles

let fresh_cycles = lazy (darsie_cycles (Suite.load_app cache_app))

let entry_path cache =
  let launch = (cache_app.W.prepare ~scale:1).W.launch in
  let key = Darsie_trace.Cache.key ~name:cache_app.W.abbr ~scale:1 launch in
  Filename.concat (Darsie_trace.Cache.dir cache) (key ^ ".trace")

let test_cache_store_failure () =
  with_tmp_cache (fun cache ->
      (* the final path is a non-empty directory, so the rename fails *)
      let final = entry_path cache in
      Sys.mkdir (Darsie_trace.Cache.dir cache) 0o755;
      Sys.mkdir final 0o755;
      close_out (open_out (Filename.concat final "occupant"));
      let a = Suite.load_app ~cache cache_app in
      check_int "the blocked entry reads as a miss" 1
        (Darsie_trace.Cache.misses cache);
      check_int "nothing is stored" 0 (Darsie_trace.Cache.stores cache);
      check_bool "no temp file is left behind" true
        (Array.for_all
           (fun e -> not (Filename.check_suffix e ".tmp"))
           (Sys.readdir (Darsie_trace.Cache.dir cache)));
      check_int "the trace replays identically" (Lazy.force fresh_cycles)
        (darsie_cycles a))

(* The v2 entry layout, as the cache writes it: the magic line, a
   marshaled header whose last field holds each warp's (ops bytes,
   addrs bytes), then the raw buffers; each op row starts with its
   address offset, then its instruction index. *)
type header =
  Darsie_isa.Kernel.launch
  * int
  * Darsie_emu.Interp.stats
  * (int * int) array array

let header_end s =
  let m = String.index s '\n' + 1 in
  (m, m + Marshal.total_size (Bytes.unsafe_of_string s) m)

let truncate_payload s =
  let _, p = header_end s in
  String.sub s 0 (p + ((String.length s - p) / 2))

let length_past_eof s =
  let m, p = header_end s in
  let ((launch, ws, st, lens) : header) = Marshal.from_string s m in
  let _, a = lens.(0).(0) in
  lens.(0).(0) <- (1 lsl 32, a);
  String.sub s 0 m
  ^ Marshal.to_string ((launch, ws, st, lens) : header) []
  ^ String.sub s p (String.length s - p)

let idx_out_of_range s =
  let _, p = header_end s in
  let b = Bytes.of_string s in
  Bytes.set_int32_le b (p + 4) 0x7FFF_FFFFl;
  Bytes.to_string b

let test_cache_corrupt_entries () =
  List.iter
    (fun (what, corrupt) ->
      with_tmp_cache (fun cache ->
          let _ = Suite.load_app ~cache cache_app in
          let p = entry_path cache in
          let s = In_channel.with_open_bin p In_channel.input_all in
          Out_channel.with_open_bin p (fun oc ->
              output_string oc (corrupt s));
          let before = Gc.allocated_bytes () in
          let a = Suite.load_app ~cache cache_app in
          (* a 4 GB length must be refused before it is allocated *)
          check_bool (what ^ ": nothing oversized is allocated") true
            (Gc.allocated_bytes () -. before < 2e9);
          check_int (what ^ ": reads as a miss") 2
            (Darsie_trace.Cache.misses cache);
          check_int (what ^ ": is regenerated") 2
            (Darsie_trace.Cache.stores cache);
          check_int (what ^ ": replays identically") (Lazy.force fresh_cycles)
            (darsie_cycles a)))
    [
      ("truncated mid-payload", truncate_payload);
      ("length past EOF", length_past_eof);
      ("idx out of range", idx_out_of_range);
    ]

let () =
  Alcotest.run "parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "ordering" `Quick test_pool_order;
          Alcotest.test_case "crash isolation" `Quick test_pool_isolation;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "matrix -j1 = -j4" `Quick test_matrix_determinism;
          Alcotest.test_case "checker -j1 = -j4" `Quick
            test_checker_determinism;
        ] );
      ( "trace-cache",
        [
          Alcotest.test_case "roundtrip" `Quick test_cache_roundtrip;
          Alcotest.test_case "content key" `Quick test_cache_key_content;
          Alcotest.test_case "corruption" `Quick test_cache_corruption;
          Alcotest.test_case "failed store" `Quick test_cache_store_failure;
          Alcotest.test_case "corrupt v2 entries" `Quick
            test_cache_corrupt_entries;
        ] );
    ]
