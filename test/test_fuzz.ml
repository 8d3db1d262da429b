(* Tests for the kernel fuzzer: PRNG splittability and determinism,
   typed Builder.finish_result errors (the fuzzer's well-formedness
   backstop), generator well-formedness and seed-determinism, the
   printer/parser round-trip property over generated kernels, the
   stacked differential on a clean sample, shrinker determinism and
   eval accounting, campaign schedule-independence, and the on-disk
   counterexample corpus (string round-trip plus replay of every
   checked-in witness). *)

module Sprng = Darsie_fuzz.Sprng
module Plan = Darsie_fuzz.Plan
module Gen = Darsie_fuzz.Gen
module Shrink = Darsie_fuzz.Shrink
module Differential = Darsie_fuzz.Differential
module Corpus = Darsie_fuzz.Corpus
module Campaign = Darsie_fuzz.Campaign
module Builder = Darsie_isa.Builder
module Parser = Darsie_isa.Parser
module Printer = Darsie_isa.Printer
module Instr = Darsie_isa.Instr

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

let check_string = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Splittable PRNG *)

let test_sprng_determinism () =
  let draws t = List.init 32 (fun _ -> Sprng.bits32 t) in
  let a = draws (Sprng.for_index ~seed:42 ~index:7) in
  let b = draws (Sprng.for_index ~seed:42 ~index:7) in
  check_bool "same (seed, index) -> same stream" true (a = b);
  let c = draws (Sprng.for_index ~seed:42 ~index:8) in
  check_bool "adjacent index -> different stream" true (a <> c);
  let d = draws (Sprng.for_index ~seed:43 ~index:7) in
  check_bool "adjacent seed -> different stream" true (a <> d)

let test_sprng_split_independent () =
  let parent = Sprng.create 1 in
  let child = Sprng.split parent in
  (* the child was derived before these parent draws; draining the
     parent must not perturb the child *)
  let _ = List.init 100 (fun _ -> Sprng.bits32 parent) in
  let child_draws = List.init 16 (fun _ -> Sprng.bits32 child) in
  let parent2 = Sprng.create 1 in
  let child2 = Sprng.split parent2 in
  let child2_draws = List.init 16 (fun _ -> Sprng.bits32 child2) in
  check_bool "split stream independent of later parent draws" true
    (child_draws = child2_draws)

let test_sprng_ranges () =
  let t = Sprng.create 7 in
  for _ = 1 to 1000 do
    let v = Sprng.int t 10 in
    check_bool "int in [0,10)" true (v >= 0 && v < 10);
    let w = Sprng.in_range t 3 5 in
    check_bool "in_range in [3,5]" true (w >= 3 && w <= 5)
  done;
  for _ = 1 to 200 do
    check_bool "chance 100 always" true (Sprng.chance t 100);
    check_bool "chance 0 never" false (Sprng.chance t 0);
    check_int "weighted singleton" 9 (Sprng.weighted t [ (5, 9) ])
  done;
  check_bool "hash2 stateless" true (Sprng.hash2 3 4 = Sprng.hash2 3 4)

(* ------------------------------------------------------------------ *)
(* Builder typed errors (finish_result) *)

let test_builder_finish_result () =
  let expect name want b =
    match Builder.finish_result b with
    | Ok _ -> Alcotest.failf "%s: expected %s" name want
    | Error e ->
      check_bool
        (Printf.sprintf "%s: %s" name (Builder.error_message e))
        true
        (match (want, e) with
        | "empty", Builder.Empty_kernel -> true
        | "no-terminator", Builder.No_terminator _ -> true
        | "unplaced", Builder.Unplaced_label _ -> true
        | "unallocated-reg", Builder.Unallocated_register _ -> true
        | "unallocated-pred", Builder.Unallocated_predicate _ -> true
        | _ -> false)
  in
  expect "empty kernel" "empty" (Builder.create ~name:"e" ());
  (let b = Builder.create ~name:"fall" () in
   Builder.mov b (Builder.reg b) (Builder.O.i 1);
   expect "falls off the end" "no-terminator" b);
  (let b = Builder.create ~name:"dangling" () in
   Builder.bra b (Builder.fresh_label b);
   Builder.exit_ b;
   expect "unplaced label" "unplaced" b);
  (let b = Builder.create ~name:"reg" () in
   Builder.mov b 5 (Builder.O.i 1);
   Builder.exit_ b;
   expect "register never allocated" "unallocated-reg" b);
  (let b = Builder.create ~name:"pred" () in
   let r = Builder.reg b in
   Builder.emit b ~guard:(true, 2) (Instr.Un (Instr.Mov, r, Builder.O.i 1));
   Builder.exit_ b;
   expect "predicate never allocated" "unallocated-pred" b);
  (* a well-formed stream still finishes *)
  let b = Builder.create ~name:"ok" () in
  Builder.mov b (Builder.reg b) (Builder.O.i 1);
  Builder.exit_ b;
  check_bool "well-formed builds" true
    (Result.is_ok (Builder.finish_result b))

(* ------------------------------------------------------------------ *)
(* Generator *)

let gen_cases n =
  List.init n (fun index ->
      let style, plan = Gen.generate ~seed:11 ~index in
      match Plan.build plan with
      | Ok case -> (style, plan, case)
      | Error m -> Alcotest.failf "kernel %d (%s) failed to build: %s" index style m)

let test_gen_well_formed () =
  let cases = gen_cases 100 in
  List.iter
    (fun (_, plan, case) ->
      check_bool "non-empty plan" true (Plan.size plan > 0);
      check_bool "has instructions" true (Plan.instruction_count case > 0);
      let gx, gy = plan.Plan.grid and bx, by, bz = plan.Plan.block in
      check_bool "positive geometry" true
        (gx > 0 && gy > 0 && bx > 0 && by > 0 && bz > 0))
    cases;
  let seen = List.sort_uniq compare (List.map (fun (s, _, _) -> s) cases) in
  List.iter
    (fun style ->
      check_bool (Printf.sprintf "style %s exercised" style) true
        (List.mem style seen))
    Gen.styles

let test_gen_deterministic () =
  for index = 0 to 49 do
    let a = Gen.generate ~seed:5 ~index in
    let b = Gen.generate ~seed:5 ~index in
    check_bool "same (seed, index) -> same plan" true (a = b)
  done;
  let differs = ref 0 in
  for index = 0 to 49 do
    if Gen.generate ~seed:5 ~index <> Gen.generate ~seed:6 ~index then
      incr differs
  done;
  check_bool "different seed -> mostly different plans" true (!differs > 40)

(* ------------------------------------------------------------------ *)
(* Printer/parser round-trip over generated kernels *)

let test_roundtrip_generated () =
  List.iteri
    (fun index (_, _, case) ->
      let k = case.Plan.kernel in
      let printed = Printer.kernel_to_string k in
      let reparsed =
        try Parser.parse_kernel printed
        with e ->
          Alcotest.failf "kernel %d does not reparse (%s):\n%s" index
            (Printexc.to_string e) printed
      in
      check_string
        (Printf.sprintf "kernel %d reprints identically" index)
        printed
        (Printer.kernel_to_string reparsed))
    (gen_cases 200)

(* ------------------------------------------------------------------ *)
(* Stacked differential on a clean sample *)

let test_differential_clean () =
  List.iteri
    (fun index (style, _, case) ->
      let v = Differential.check_case case in
      (match v.Differential.v_failure with
      | None -> ()
      | Some f ->
        Alcotest.failf "kernel %d (%s) failed the stack: %s: %s" index style
          f.Differential.f_kind f.Differential.f_detail);
      check_bool "ran instructions" true (v.Differential.v_warp_insts > 0);
      check_bool "simulated cycles" true (v.Differential.v_cycles > 0))
    (gen_cases 30)

(* ------------------------------------------------------------------ *)
(* Shrinker *)

let test_shrink_accounting () =
  let _, plan = Gen.generate ~seed:3 ~index:1 in
  (* an always-true predicate shrinks to something minimal and must
     account every evaluation it spent doing so *)
  let shrunk, evals =
    Shrink.shrink ~predicate:(fun _ -> true) ~max_evals:2000 plan
  in
  check_bool "shrank" true (Plan.size shrunk < Plan.size plan);
  check_bool "evals accounted" true (evals > 0);
  check_bool "evals within budget" true (evals <= 2000);
  (* a never-true predicate keeps the plan but still counts its probes *)
  let kept, evals' =
    Shrink.shrink ~predicate:(fun _ -> false) ~max_evals:2000 plan
  in
  check_bool "nothing accepted -> plan unchanged" true (kept = plan);
  check_bool "rejected probes still accounted" true (evals' > 0)

let test_shrink_deterministic () =
  let _, plan = Gen.generate ~seed:3 ~index:2 in
  let predicate p = Plan.size p >= 2 in
  let a = Shrink.shrink ~predicate ~max_evals:500 plan in
  let b = Shrink.shrink ~predicate ~max_evals:500 plan in
  check_bool "same plan + predicate -> same result" true (a = b);
  let shrunk, _ = a in
  check_bool "respects the predicate" true (predicate shrunk)

(* ------------------------------------------------------------------ *)
(* Campaign: schedule-independence and replay *)

let campaign_config jobs =
  {
    Campaign.seed = 9;
    count = 20;
    jobs = Some jobs;
    max_shrink = 200;
    corpus_dir = None;
    inject = false;
    base_cfg = Darsie_timing.Config.default;
  }

let test_campaign_jobs_identical () =
  let r1 = Campaign.run (campaign_config 1) in
  let r3 = Campaign.run (campaign_config 3) in
  check_bool "campaign passes" true (Campaign.passed r1);
  check_int "exit code 0" 0 (Campaign.exit_code r1);
  check_string "render identical at -j 1 and -j 3" (Campaign.render r1)
    (Campaign.render r3);
  check_bool "json identical at -j 1 and -j 3" true
    (Campaign.to_json r1 = Campaign.to_json r3);
  match Darsie_harness.Metrics.validate (Campaign.to_json r1) with
  | Ok () -> ()
  | Error m -> Alcotest.failf "fuzz report does not validate: %s" m

let test_campaign_replay () =
  let text, code = Campaign.replay ~seed:9 ~index:4 () in
  check_int "replay of a clean kernel exits 0" 0 code;
  let contains needle hay =
    let n = String.length needle and h = String.length hay in
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  check_bool "replay shows the verdict" true (contains "PASS" text);
  check_bool "replay shows the kernel" true (contains ".kernel" text)

(* ------------------------------------------------------------------ *)
(* Corpus *)

let test_corpus_roundtrip () =
  List.iter
    (fun (_, plan, case) ->
      ignore plan;
      let entry =
        {
          Corpus.e_case = case;
          e_kind = None;
          e_site = None;
          e_failure = "";
          e_replay = "darsie fuzz --seed 11 --replay 11:0";
        }
      in
      let s = Corpus.to_string entry in
      match Corpus.of_string s with
      | Error m -> Alcotest.failf "corpus entry does not reparse: %s" m
      | Ok entry' ->
        check_string "corpus text round-trips" s (Corpus.to_string entry');
        check_string "kernel preserved"
          (Printer.kernel_to_string case.Plan.kernel)
          (Printer.kernel_to_string entry'.Corpus.e_case.Plan.kernel))
    (gen_cases 5)

let test_corpus_replay_checked_in () =
  (* the committed witnesses: one shrunk, detected counterexample per
     injected fault kind (see `make fuzz-smoke`) *)
  let entries = Corpus.load_dir "corpus" in
  check_int "three committed witnesses" 3 (List.length entries);
  List.iter
    (fun (file, entry) ->
      match entry with
      | Error m -> Alcotest.failf "%s does not load: %s" file m
      | Ok e ->
        check_bool
          (Printf.sprintf "%s is an injected witness" file)
          true
          (e.Corpus.e_kind <> None && e.Corpus.e_site <> None))
    entries;
  let text, code = Campaign.replay_corpus ~dir:"corpus" () in
  if code <> 0 then Alcotest.failf "corpus replay failed:\n%s" text

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "fuzz"
    [
      ( "sprng",
        [
          Alcotest.test_case "determinism" `Quick test_sprng_determinism;
          Alcotest.test_case "split independence" `Quick
            test_sprng_split_independent;
          Alcotest.test_case "ranges" `Quick test_sprng_ranges;
        ] );
      ( "builder",
        [
          Alcotest.test_case "finish_result typed errors" `Quick
            test_builder_finish_result;
        ] );
      ( "gen",
        [
          Alcotest.test_case "well-formed" `Quick test_gen_well_formed;
          Alcotest.test_case "deterministic" `Quick test_gen_deterministic;
        ] );
      ( "roundtrip",
        [ Alcotest.test_case "print/parse 200 kernels" `Slow test_roundtrip_generated ] );
      ( "differential",
        [ Alcotest.test_case "clean sample" `Slow test_differential_clean ] );
      ( "shrink",
        [
          Alcotest.test_case "eval accounting" `Quick test_shrink_accounting;
          Alcotest.test_case "deterministic" `Quick test_shrink_deterministic;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "jobs-independent" `Slow test_campaign_jobs_identical;
          Alcotest.test_case "replay" `Quick test_campaign_replay;
        ] );
      ( "corpus",
        [
          Alcotest.test_case "round-trip" `Quick test_corpus_roundtrip;
          Alcotest.test_case "replay checked-in witnesses" `Quick
            test_corpus_replay_checked_in;
        ] );
    ]
