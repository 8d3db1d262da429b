(* Tests of the benchmark's own derivations (derive.ml). *)

let o ?error op digest = { Derive.op; digest; error }

let close = Alcotest.float 1e-9

let vmhwm () =
  (* /proc/self/status lists VmHWM in kB *)
  let status =
    "Name:\tmain.exe\nVmPeak:\t  400000 kB\nVmHWM:\t  262144 kB\nVmRSS:\t  1024 kB\n"
  in
  let mb = Alcotest.(option (float 1e-9)) in
  Alcotest.check mb "parsed" (Some 256.0) (Derive.vmhwm_mb status);
  Alcotest.check mb "absent" None (Derive.vmhwm_mb "VmRSS:\t 1 kB\n");
  Alcotest.check mb "malformed" None (Derive.vmhwm_mb "VmHWM:\t lots\n")

let cycles_per_s () =
  Alcotest.check close "cycles over wall" 419_963.0
    (Derive.sim_cycles_per_s ~cycles:839_926 ~wall_s:2.0);
  Alcotest.check_raises "zero wall"
    (Invalid_argument "Derive.sim_cycles_per_s: wall_s <= 0") (fun () ->
      ignore (Derive.sim_cycles_per_s ~cycles:1 ~wall_s:0.0))

let paper_gap () =
  (* 1.3533 / 1.30 - 1 = 4.1 % *)
  Alcotest.check close "above" 4.1 (Derive.paper_gap_pct ~gmean_2d:1.3533);
  Alcotest.check close "below" 10.0 (Derive.paper_gap_pct ~gmean_2d:1.17);
  Alcotest.check close "equal" 0.0 (Derive.paper_gap_pct ~gmean_2d:1.30)

let ops = Alcotest.(list string)

let failures () =
  let expected =
    [ ("BIN/BASE", "cycles=10 md5=a"); ("BIN/UV", "cycles=9 md5=b") ]
  in
  let failed outcomes = List.map fst (Derive.failures ~expected outcomes) in
  Alcotest.check ops "all match" []
    (failed [ o "BIN/BASE" "cycles=10 md5=a"; o "BIN/UV" "cycles=9 md5=b" ]);
  Alcotest.check ops "a digest mismatch is a failed operation" [ "BIN/UV" ]
    (failed [ o "BIN/BASE" "cycles=10 md5=a"; o "BIN/UV" "cycles=9 md5=c" ]);
  Alcotest.check ops "an error fails even with a matching digest" [ "BIN/UV" ]
    (failed
       [ o "BIN/BASE" "cycles=10 md5=a"; o ~error:"ledger" "BIN/UV" "cycles=9 md5=b" ]);
  Alcotest.check ops "unexpected and missing operations fail"
    [ "PT/UV"; "BIN/UV" ]
    (failed [ o "BIN/BASE" "cycles=10 md5=a"; o "PT/UV" "x" ])

let fuzz_failures () =
  let expected =
    [
      ("totals", "kernels=10");
      ("styles", "mixed=10");
      ("kernel 3", "mixed oracle: x");
    ]
  in
  let same =
    [ o "totals" "kernels=10"; o "styles" "mixed=10"; o "kernel 3" "mixed oracle: x" ]
  in
  let failed = Derive.fuzz_failed ~count:10 ~expected in
  Alcotest.check ops "an expected failure is still a failed kernel" [ "kernel 3" ]
    (failed same);
  Alcotest.check ops "a kernel that stopped failing differs, so fails"
    [ "kernel 3" ]
    (failed [ o "totals" "kernels=10"; o "styles" "mixed=10" ]);
  Alcotest.check ops "a new failure fails" [ "kernel 3"; "kernel 5" ]
    (failed (same @ [ o "kernel 5" "mixed timing: y" ]));
  Alcotest.check Alcotest.int "an aggregate mismatch fails every kernel" 10
    (List.length
       (failed
          [
            o "totals" "kernels=11";
            o "styles" "mixed=10";
            o "kernel 3" "mixed oracle: x";
          ]))

let round_trip () =
  let outcomes = [ o "BIN/BASE" "cycles=10 md5=a"; o "kernel 3" "mixed oracle: x" ] in
  Alcotest.(check (list (pair string string)))
    "parse (render x) = x"
    (List.map (fun x -> (x.Derive.op, x.Derive.digest)) outcomes)
    (Derive.parse_expected (Derive.render_expected outcomes))

let () =
  Alcotest.run "perfbench"
    [
      ( "derive",
        [
          Alcotest.test_case "VmHWM parsing" `Quick vmhwm;
          Alcotest.test_case "sim_cycles_per_s" `Quick cycles_per_s;
          Alcotest.test_case "paper_gap_pct" `Quick paper_gap;
          Alcotest.test_case "failed operations" `Quick failures;
          Alcotest.test_case "failed fuzz kernels" `Quick fuzz_failures;
          Alcotest.test_case "expectation files" `Quick round_trip;
        ] );
    ]
