(* The benchmark's own derivations, kept free of simulator calls so that
   test_derive.ml can check them directly: the peak-memory reading,
   throughput, the gap to the paper, and the rule that turns observed
   outputs into failed operations. *)

(* Peak resident set size in MB from the text of /proc/self/status, whose
   line reads "VmHWM:    123456 kB". *)
let vmhwm_mb status =
  String.split_on_char '\n' status
  |> List.find_map (fun line ->
         match String.index_opt line ':' with
         | Some i when String.sub line 0 i = "VmHWM" -> (
           let rest = String.sub line (i + 1) (String.length line - i - 1) in
           match
             String.split_on_char ' ' (String.trim rest)
             |> List.filter (fun s -> s <> "")
           with
           | [ kb; "kB" ] ->
             Option.map (fun k -> float_of_int k /. 1024.0) (int_of_string_opt kb)
           | _ -> None)
         | _ -> None)

let sim_cycles_per_s ~cycles ~wall_s =
  if wall_s <= 0.0 then invalid_arg "Derive.sim_cycles_per_s: wall_s <= 0";
  float_of_int cycles /. wall_s

(* The paper's Fig. 8 GMEAN over the 2D applications for DARSIE, from
   GPGPU-Sim. The model is compared against that simulated figure only;
   it is not validated against hardware. *)
let paper_gmean_2d = 1.30

let paper_gap_pct ~gmean_2d = abs_float ((gmean_2d /. paper_gmean_2d) -. 1.0) *. 100.0

(* One operation's observed result: a digest of its simulated output, or
   the error it raised (a Sim_error, an attribution or ledger violation,
   a failed Metrics.validate). *)
type outcome = { op : string; digest : string; error : string option }

(* Every operation that fails against the committed expectation
   [(op, digest)], with the reason: an error, a digest that differs, an
   operation with no expectation, or an expected operation that did not
   run. In the order of [outcomes], then the missing ones. *)
let failures ~expected outcomes =
  let seen = Hashtbl.create 64 in
  let bad =
    List.filter_map
      (fun o ->
        Hashtbl.replace seen o.op ();
        match (o.error, List.assoc_opt o.op expected) with
        | Some e, _ -> Some (o.op, e)
        | None, None -> Some (o.op, "no committed expectation")
        | None, Some d when d <> o.digest ->
          Some (o.op, Printf.sprintf "digest %s, expected %s" o.digest d)
        | None, Some _ -> None)
      outcomes
  in
  bad
  @ List.filter_map
      (fun (op, _) ->
        if Hashtbl.mem seen op then None else Some (op, "did not run"))
      expected

(* Failed fuzz kernels. The campaign reports aggregates ("totals",
   "styles") plus one "kernel <i>" line per failing kernel, so a kernel
   operation fails when the campaign reports it failing, or when its line
   differs from the expectation (a kernel that stopped failing included).
   An aggregate that differs cannot be pinned on a kernel: then all
   [count] kernels count as failed. *)
let fuzz_failed ~count ~expected outcomes =
  let is_kernel op = String.starts_with ~prefix:"kernel " op in
  let mism = failures ~expected outcomes in
  if List.exists (fun (op, _) -> not (is_kernel op)) mism then
    List.init count (Printf.sprintf "kernel %d")
  else
    List.filter is_kernel (List.map (fun o -> o.op) outcomes)
    @ List.map fst mism
    |> List.sort_uniq compare

(* Expectation files hold one "op<TAB>digest" line per operation. *)
let parse_expected text =
  String.split_on_char '\n' text
  |> List.filter_map (fun line ->
         match String.index_opt line '\t' with
         | Some i ->
           Some
             ( String.sub line 0 i,
               String.sub line (i + 1) (String.length line - i - 1) )
         | None -> None)

let render_expected outcomes =
  String.concat "" (List.map (fun o -> o.op ^ "\t" ^ o.digest ^ "\n") outcomes)
