(* Tests for the parallel suite runner and the functional-trace cache:
   the Parallel pool's ordering/isolation contract, schedule-independence
   of the merged matrix (the -j 1 vs -j 4 byte-identity the CLI and bench
   rely on), and trace-cache hits producing identical figures. *)

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

(* the machines Figures.fig8 (and so Trendline.of_matrix) reads *)
let small_machines =
  [ Suite.Base; Suite.Uv; Suite.Dac_ideal; Suite.Darsie;
    Suite.Darsie_ignore_store ]

(* Everything the suite exports, as one canonical byte string: the
   per-cell metrics documents in deterministic order plus a trendline
   record with the nondeterministic wall fields pinned. *)
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
  let record =
    Trendline.of_matrix ~date:"2026-01-01" ~label:"test" ~wall_s:1.0 ~repeats:1
      m
  in
  String.concat "\n" cells ^ "\n" ^ J.to_string (Trendline.to_json record)

let test_matrix_determinism () =
  let build jobs =
    Suite.build_matrix ~apps:small_apps ~machines:small_machines ~jobs ()
  in
  let serial = matrix_fingerprint (build 1) in
  let parallel = matrix_fingerprint (build 4) in
  check_string "metrics + trendline JSON byte-identical at -j 1 and -j 4"
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
        ] );
    ]
