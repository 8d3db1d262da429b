(* Keeps docs/metrics-schema.md and EXPERIMENTS.md honest: every JSON
   example tagged with a [<!-- validate: KIND -->] comment is extracted,
   its kind detected by [Metrics.kind_of] must equal the tag, and it
   must pass [Metrics.validate], so the documented schema cannot drift
   from what the exporters and the validator actually implement. *)

open Darsie_harness
module J = Darsie_obs.Json

(* dune runs tests from _build/default/test/; the doc is declared as a
   test dep so it is mirrored into the build tree. *)
let doc_path = Filename.concat Filename.parent_dir_name "docs/metrics-schema.md"

type example = { src : string; kind : string; line : int; json : string }

(* Scan for "<!-- validate: KIND -->" followed by a ```json fence and
   collect the fence body. *)
let extract_examples path =
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  let lines = Array.of_list (List.rev !lines) in
  let n = Array.length lines in
  let examples = ref [] in
  let i = ref 0 in
  while !i < n do
    let line = String.trim lines.(!i) in
    (if String.length line > 14 && String.sub line 0 14 = "<!-- validate:" then begin
       let kind =
         String.trim (String.sub line 14 (String.length line - 14 - 3))
       in
       (* skip blanks to the opening fence *)
       let j = ref (!i + 1) in
       while !j < n && String.trim lines.(!j) = "" do
         incr j
       done;
       if !j >= n || String.trim lines.(!j) <> "```json" then
         Alcotest.failf "%s:%d: validate marker not followed by a ```json fence"
           path (!i + 1);
       let start = !j + 1 in
       let stop = ref start in
       while !stop < n && String.trim lines.(!stop) <> "```" do
         incr stop
       done;
       if !stop >= n then
         Alcotest.failf "%s:%d: unterminated ```json fence" path (start + 1);
       let body =
         String.concat "\n" (Array.to_list (Array.sub lines start (!stop - start)))
       in
       examples :=
         { src = Filename.basename path; kind; line = !i + 1; json = body }
         :: !examples;
       i := !stop
     end);
    incr i
  done;
  List.rev !examples

let validate_example e =
  let doc =
    match J.of_string e.json with
    | Ok doc -> doc
    | Error msg -> Alcotest.failf "%s:%d: bad JSON: %s" e.src e.line msg
  in
  (match Metrics.kind_of doc with
  | Ok k when k = e.kind -> ()
  | Ok k -> Alcotest.failf "%s:%d: tagged %s, detected %s" e.src e.line e.kind k
  | Error msg -> Alcotest.failf "%s:%d: no kind: %s" e.src e.line msg);
  match Metrics.validate doc with
  | Ok () -> ()
  | Error msg ->
    Alcotest.failf "%s:%d: %s example rejected: %s" e.src e.line e.kind msg

let experiments_path =
  Filename.concat Filename.parent_dir_name "EXPERIMENTS.md"

let test_examples_validate () =
  let examples = extract_examples doc_path in
  let cookbook = extract_examples experiments_path in
  List.iter validate_example examples;
  List.iter validate_example cookbook;
  let count k = List.length (List.filter (fun e -> e.kind = k) examples) in
  (* the doc must keep at least one live example per document kind the
     validator knows, and a profiled metrics document exercising the
     per_pc identities *)
  List.iter
    (fun k ->
      Alcotest.(check bool) ("a " ^ k ^ " example") true (count k >= 1))
    Metrics.kinds;
  Alcotest.(check bool) "at least two metrics examples" true (count "metrics" >= 2);
  (* the EXPERIMENTS.md sweep cookbook must keep its measured excerpt *)
  Alcotest.(check bool) "a cookbook sensitivity excerpt" true
    (List.exists (fun e -> e.kind = "sensitivity_sweep") cookbook)

(* The doc's versioning table quotes the constants; make sure the quoted
   numbers track the code. *)
let test_versions_quoted () =
  let ic = open_in doc_path in
  let len = in_channel_length ic in
  let body = really_input_string ic len in
  close_in ic;
  let contains needle =
    let nl = String.length needle and bl = String.length body in
    let rec go i = i + nl <= bl && (String.sub body i nl = needle || go (i + 1)) in
    go 0
  in
  let quoted name v = Printf.sprintf "`%s` = %d" name v in
  Alcotest.(check bool) "metrics version quoted" true
    (contains (quoted "Darsie_obs.Export.schema_version" Metrics.schema_version));
  Alcotest.(check bool) "check version quoted" true
    (contains (quoted "Metrics.check_schema_version" Metrics.check_schema_version));
  Alcotest.(check bool) "fuzz version quoted" true
    (contains (quoted "Metrics.fuzz_schema_version" Metrics.fuzz_schema_version));
  Alcotest.(check bool) "sensitivity version quoted" true
    (contains
       (quoted "Metrics.sensitivity_schema_version"
          Metrics.sensitivity_schema_version));
  Alcotest.(check bool) "host-telemetry version quoted" true
    (contains
       (quoted "Host_trace.schema_version" Metrics.telemetry_schema_version))

(* docs/machine-model.md quotes every integer knob's default as
   "`name` = value"; cross-check each against Config.knobs so the
   documented machine cannot drift from the simulated one. *)
let model_path = Filename.concat Filename.parent_dir_name "docs/machine-model.md"

let test_machine_model_defaults () =
  let ic = open_in model_path in
  let len = in_channel_length ic in
  let body = really_input_string ic len in
  close_in ic;
  let contains needle =
    let nl = String.length needle and bl = String.length body in
    let rec go i = i + nl <= bl && (String.sub body i nl = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun (name, v) ->
      Alcotest.(check bool)
        (Printf.sprintf "default for %s quoted" name)
        true
        (contains (Printf.sprintf "`%s` = %d" name v)))
    (Darsie_timing.Config.knobs Darsie_timing.Config.default)

let () =
  Alcotest.run "docs"
    [
      ( "metrics-schema",
        [
          Alcotest.test_case "examples validate" `Quick test_examples_validate;
          Alcotest.test_case "version constants quoted" `Quick
            test_versions_quoted;
        ] );
      ( "machine-model",
        [
          Alcotest.test_case "knob defaults quoted" `Quick
            test_machine_model_defaults;
        ] );
    ]
