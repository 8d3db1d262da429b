module Oracle = Darsie_check.Oracle
module Injector = Darsie_check.Injector
module Parallel = Darsie_harness.Parallel
module Json = Darsie_obs.Json
module M = Darsie_compiler.Marking

type config = {
  seed : int;
  count : int;
  jobs : int option;
  max_shrink : int;
  corpus_dir : string option;
  inject : bool;
  base_cfg : Darsie_timing.Config.t;
}

type failure_rec = {
  fr_index : int;
  fr_style : string;
  fr_kind : string;
  fr_detail : string;
  fr_replay : string;
  fr_items_before : int;
  fr_items_after : int;
  fr_evals : int;
  fr_case : Plan.case option;
  fr_file : string option;
}

type inject_rec = {
  ir_kind : string;
  ir_index : int option;
  ir_detected : bool;
  ir_site : Injector.site option;
  ir_insts : int;
  ir_file : string option;
}

type report = {
  r_seed : int;
  r_count : int;
  r_inject : bool;
  r_kernels : int;
  r_passed : int;
  r_styles : (string * int) list;
  r_promoted : int;
  r_warp_insts : int;
  r_forwards : int;
  r_skips : int;
  r_cycles : int;
  r_failures : failure_rec list;
  r_injects : inject_rec list;
}

let replay_command ~seed ~index =
  Printf.sprintf "darsie fuzz --seed %d --replay %d:%d" seed seed index

let promoted_of (plan : Plan.t) =
  let x, y, z = plan.Plan.block in
  Darsie_compiler.Promotion.resolves_redundant M.Cond_redundant
    ~block:(Darsie_isa.Kernel.dim3 x ~y ~z)
    ~warp_size:32

let sites_of kind (c : Injector.candidates) =
  match kind with
  | Injector.Flip_skip_entry -> c.Injector.flip_sites
  | Injector.Poison_hre -> c.Injector.poison_sites
  | Injector.Skip_non_redundant -> c.Injector.skip_sites

(* Per-kernel worker result; merged in input order so every downstream
   artifact is independent of scheduling. *)
type outcome = {
  o_style : string;
  o_promoted : bool;
  o_clean : bool;
  o_forwards : int;
  o_warp_insts : int;
  o_cycles : int;
  o_skips : int;
  o_flags : bool * bool * bool;  (* applicable flip/poison/skip sites *)
  o_fail : (string * string * Plan.t * int * int) option;
      (* kind, detail, shrunk plan, evals, items before *)
}

let no_outcome style promoted =
  {
    o_style = style;
    o_promoted = promoted;
    o_clean = false;
    o_forwards = 0;
    o_warp_insts = 0;
    o_cycles = 0;
    o_skips = 0;
    o_flags = (false, false, false);
    o_fail = None;
  }

let clean_worker cfg index =
  let style, plan = Gen.generate ~seed:cfg.seed ~index in
  let promoted = promoted_of plan in
  let items_before = Plan.size plan in
  match Plan.build plan with
  | Error msg ->
      let predicate p =
        match Plan.build p with Error _ -> true | Ok _ -> false
      in
      let shrunk, evals =
        Shrink.shrink ~predicate ~max_evals:cfg.max_shrink plan
      in
      {
        (no_outcome style promoted) with
        o_fail = Some ("build", msg, shrunk, evals, items_before);
      }
  | Ok case -> (
      let v = Differential.check_case ~base_cfg:cfg.base_cfg case in
      let base =
        {
          (no_outcome style promoted) with
          o_forwards = v.Differential.v_forwards;
          o_warp_insts = v.Differential.v_warp_insts;
          o_cycles = v.Differential.v_cycles;
          o_skips = v.Differential.v_skips;
        }
      in
      match v.Differential.v_failure with
      | None -> { base with o_clean = true }
      | Some f ->
          let predicate p =
            match Plan.build p with
            | Error _ -> f.Differential.f_kind = "build"
            | Ok c -> (
                match
                  (Differential.check_case ~base_cfg:cfg.base_cfg c)
                    .Differential.v_failure
                with
                | Some f' -> f'.Differential.f_kind = f.Differential.f_kind
                | None -> false)
          in
          let shrunk, evals =
            Shrink.shrink ~predicate ~max_evals:cfg.max_shrink plan
          in
          {
            base with
            o_fail =
              Some
                ( f.Differential.f_kind,
                  f.Differential.f_detail,
                  shrunk,
                  evals,
                  items_before );
          })

let inject_worker cfg index =
  let style, plan = Gen.generate ~seed:cfg.seed ~index in
  let promoted = promoted_of plan in
  match Plan.build plan with
  | Error _ -> no_outcome style promoted
  | Ok case -> (
      let subj = Plan.subject case in
      match Oracle.check_subject subj with
      | rep when Oracle.passed rep ->
          let c = Oracle.candidates_subject subj in
          {
            (no_outcome style promoted) with
            o_clean = true;
            o_forwards = rep.Oracle.forwards;
            o_warp_insts = rep.Oracle.warp_insts;
            o_flags =
              ( c.Injector.flip_sites <> [],
                c.Injector.poison_sites <> [],
                c.Injector.skip_sites <> [] );
          }
      | _ -> no_outcome style promoted
      | exception _ -> no_outcome style promoted)

(* Fault-injection witness for one kind: first kernel (by index) with an
   applicable site, detection check, then shrinking under "still has a
   site of this kind whose injection the stack detects". *)
let witness cfg outcomes kind =
  let kind_name = Injector.kind_name kind in
  let flag (f, p, s) =
    match kind with
    | Injector.Flip_skip_entry -> f
    | Injector.Poison_hre -> p
    | Injector.Skip_non_redundant -> s
  in
  let first =
    List.find_index
      (fun o -> o.o_clean && flag o.o_flags)
      outcomes
  in
  match first with
  | None ->
      {
        ir_kind = kind_name;
        ir_index = None;
        ir_detected = false;
        ir_site = None;
        ir_insts = 0;
        ir_file = None;
      }
  | Some index ->
      let _, plan = Gen.generate ~seed:cfg.seed ~index in
      let detect p =
        match Plan.build p with
        | Error _ -> false
        | Ok case -> (
            let subj = Plan.subject case in
            match Oracle.check_subject subj with
            | rep when not (Oracle.passed rep) -> false
            | _ -> (
                match sites_of kind (Oracle.candidates_subject subj) with
                | [] -> false
                | site :: _ ->
                    not
                      (Oracle.passed
                         (Oracle.check_fault_subject subj { Injector.kind; site })))
            | exception _ -> false)
      in
      if not (detect plan) then
        (* The site was applicable but injection went undetected: the
           fuzzer found a real oracle gap. Report it unshrunk. *)
        {
          ir_kind = kind_name;
          ir_index = Some index;
          ir_detected = false;
          ir_site = None;
          ir_insts = 0;
          ir_file = None;
        }
      else
        let shrunk, _evals =
          Shrink.shrink ~predicate:detect ~max_evals:cfg.max_shrink plan
        in
        let case =
          match Plan.build shrunk with
          | Ok c -> c
          | Error _ -> assert false (* detect held on [shrunk] *)
        in
        let site =
          List.nth_opt (sites_of kind (Oracle.candidates_subject (Plan.subject case))) 0
        in
        let file =
          match cfg.corpus_dir with
          | None -> None
          | Some dir ->
              Some
                (Corpus.write ~dir
                   ~filename:(Printf.sprintf "injected_%s.fuzz" kind_name)
                   {
                     Corpus.e_case = case;
                     e_kind = Some kind;
                     e_site = site;
                     e_failure = "";
                     e_replay =
                       Printf.sprintf "darsie fuzz --seed %d --count %d --inject"
                         cfg.seed cfg.count;
                   })
        in
        {
          ir_kind = kind_name;
          ir_index = Some index;
          ir_detected = true;
          ir_site = site;
          ir_insts = Plan.instruction_count case;
          ir_file = file;
        }

let run cfg =
  let indices = List.init cfg.count Fun.id in
  let worker = if cfg.inject then inject_worker cfg else clean_worker cfg in
  let outcomes =
    Parallel.run ?jobs:cfg.jobs
      ~label:(Printf.sprintf "kernel %d")
      (fun i ->
        try worker i
        with e ->
          let style, plan = Gen.generate ~seed:cfg.seed ~index:i in
          {
            (no_outcome style (promoted_of plan)) with
            o_fail =
              Some ("crash", Printexc.to_string e, plan, 0, Plan.size plan);
          })
      indices
    |> List.map (function
         | Ok o -> o
         | Error e ->
             {
               (no_outcome "unknown" false) with
               o_fail = Some ("crash", Printexc.to_string e, Gen.(snd (generate ~seed:cfg.seed ~index:0)), 0, 0);
             })
  in
  let styles =
    List.sort_uniq compare (List.map (fun o -> o.o_style) outcomes)
    |> List.map (fun s ->
           (s, List.length (List.filter (fun o -> o.o_style = s) outcomes)))
  in
  let failures =
    List.concat
      (List.mapi
         (fun i o ->
           match o.o_fail with
           | None -> []
           | Some (kind, detail, shrunk, evals, items_before) ->
               let case =
                 match Plan.build shrunk with Ok c -> Some c | Error _ -> None
               in
               let file =
                 match (cfg.corpus_dir, case) with
                 | Some dir, Some case ->
                     Some
                       (Corpus.write ~dir
                          ~filename:
                            (Printf.sprintf "s%d_i%d_%s.fuzz" cfg.seed i kind)
                          {
                            Corpus.e_case = case;
                            e_kind = None;
                            e_site = None;
                            e_failure = kind;
                            e_replay = replay_command ~seed:cfg.seed ~index:i;
                          })
                 | _ -> None
               in
               [
                 {
                   fr_index = i;
                   fr_style = o.o_style;
                   fr_kind = kind;
                   fr_detail = detail;
                   fr_replay = replay_command ~seed:cfg.seed ~index:i;
                   fr_items_before = items_before;
                   fr_items_after = Plan.size shrunk;
                   fr_evals = evals;
                   fr_case = case;
                   fr_file = file;
                 };
               ])
         outcomes)
  in
  let injects =
    if cfg.inject then List.map (witness cfg outcomes) Injector.all_kinds
    else []
  in
  let sum f = List.fold_left (fun acc o -> acc + f o) 0 outcomes in
  {
    r_seed = cfg.seed;
    r_count = cfg.count;
    r_inject = cfg.inject;
    r_kernels = List.length outcomes;
    r_passed = List.length (List.filter (fun o -> o.o_clean) outcomes);
    r_styles = styles;
    r_promoted = List.length (List.filter (fun o -> o.o_promoted) outcomes);
    r_warp_insts = sum (fun o -> o.o_warp_insts);
    r_forwards = sum (fun o -> o.o_forwards);
    r_skips = sum (fun o -> o.o_skips);
    r_cycles = sum (fun o -> o.o_cycles);
    r_failures = failures;
    r_injects = injects;
  }

let passed r =
  if r.r_inject then
    r.r_injects <> []
    && List.for_all
         (fun ir -> ir.ir_index <> None && ir.ir_detected)
         r.r_injects
  else r.r_failures = []

let exit_code r =
  if passed r then 0
  else
    match r.r_failures with
    | f :: _ ->
        Differential.exit_code
          { Differential.f_kind = f.fr_kind; f_detail = f.fr_detail }
    | [] -> 2

let render r =
  let b = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  line "fuzz campaign: seed %d, %d kernels%s" r.r_seed r.r_count
    (if r.r_inject then ", fault-injection mode" else "");
  line "stack: oracle + fast-forward bit-identity + attribution/ledger invariants";
  line "styles: %s"
    (String.concat ", "
       (List.map (fun (s, n) -> Printf.sprintf "%s %d" s n) r.r_styles));
  line "geometry: %d/%d blocks promote CR->DR (x-dim condition)" r.r_promoted
    r.r_kernels;
  line "dynamic: %d warp insts, %d forwards, %d skips, %d cycles" r.r_warp_insts
    r.r_forwards r.r_skips r.r_cycles;
  List.iter
    (fun f ->
      line "FAIL kernel %d (%s): %s: %s" f.fr_index f.fr_style f.fr_kind
        f.fr_detail;
      line "  replay: %s" f.fr_replay;
      line "  shrunk: %d -> %d items (%d evals)%s" f.fr_items_before
        f.fr_items_after f.fr_evals
        (match f.fr_file with
        | Some p -> Printf.sprintf ", corpus: %s" p
        | None -> ""))
    r.r_failures;
  List.iter
    (fun ir ->
      match ir.ir_index with
      | None ->
          line "inject %s: NO applicable site in %d kernels" ir.ir_kind
            r.r_kernels
      | Some i ->
          if ir.ir_detected then
            line "inject %s: kernel %d, detected, shrunk witness %d insts%s"
              ir.ir_kind i ir.ir_insts
              (match ir.ir_file with
              | Some p -> Printf.sprintf ", corpus: %s" p
              | None -> "")
          else line "inject %s: kernel %d, NOT DETECTED" ir.ir_kind i)
    r.r_injects;
  if r.r_inject then
    line "result: %s"
      (if passed r then "PASS (all fault kinds witnessed and detected)"
       else "FAIL")
  else
    line "result: %s %d/%d"
      (if passed r then "PASS" else "FAIL")
      r.r_passed r.r_kernels;
  Buffer.contents b

let site_json (s : Injector.site) =
  Json.Obj
    [
      ("tb", Json.Int s.Injector.s_tb);
      ("warp", Json.Int s.Injector.s_warp);
      ("inst", Json.Int s.Injector.s_inst);
      ("occ", Json.Int s.Injector.s_occ);
    ]

let to_json r =
  let opt_str = function None -> Json.Null | Some s -> Json.String s in
  Json.Obj
    [
      ("kind", Json.String "fuzz_campaign");
      ("schema_version", Json.Int Darsie_harness.Metrics.fuzz_schema_version);
      ("seed", Json.Int r.r_seed);
      ("count", Json.Int r.r_count);
      ("inject", Json.Bool r.r_inject);
      ("kernels", Json.Int r.r_kernels);
      ("passed", Json.Int r.r_passed);
      ("promoted", Json.Int r.r_promoted);
      ( "styles",
        Json.Obj (List.map (fun (s, n) -> (s, Json.Int n)) r.r_styles) );
      ( "totals",
        Json.Obj
          [
            ("warp_insts", Json.Int r.r_warp_insts);
            ("forwards", Json.Int r.r_forwards);
            ("skips", Json.Int r.r_skips);
            ("cycles", Json.Int r.r_cycles);
          ] );
      ( "failures",
        Json.List
          (List.map
             (fun f ->
               Json.Obj
                 [
                   ("index", Json.Int f.fr_index);
                   ("style", Json.String f.fr_style);
                   ("failure", Json.String f.fr_kind);
                   ("detail", Json.String f.fr_detail);
                   ("replay", Json.String f.fr_replay);
                   ("items_before", Json.Int f.fr_items_before);
                   ("items_after", Json.Int f.fr_items_after);
                   ("shrink_evals", Json.Int f.fr_evals);
                   ("corpus_file", opt_str f.fr_file);
                 ])
             r.r_failures) );
      ( "injected",
        Json.List
          (List.map
             (fun ir ->
               Json.Obj
                 [
                   ("fault", Json.String ir.ir_kind);
                   ( "index",
                     match ir.ir_index with
                     | None -> Json.Null
                     | Some i -> Json.Int i );
                   ("detected", Json.Bool ir.ir_detected);
                   ( "site",
                     match ir.ir_site with
                     | None -> Json.Null
                     | Some s -> site_json s );
                   ("instructions", Json.Int ir.ir_insts);
                   ("corpus_file", opt_str ir.ir_file);
                 ])
             r.r_injects) );
    ]

(* ---- replay ---------------------------------------------------------- *)

let render_case (c : Plan.case) =
  let b = Buffer.create 512 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  let gx, gy = c.Plan.c_grid and bx, by, bz = c.Plan.c_block in
  line "grid (%d,%d), block (%d,%d,%d)" gx gy bx by bz;
  List.iteri
    (fun i (l, f) -> line "buffer %d: %d words, fill seed %d" i (1 lsl l) f)
    c.Plan.c_buffers;
  List.iteri (fun i s -> line "scalar %d: %d" i s) c.Plan.c_scalars;
  Buffer.add_string b (Darsie_isa.Printer.kernel_to_string c.Plan.kernel);
  Buffer.contents b

let replay ?base_cfg ~seed ~index () =
  let style, plan = Gen.generate ~seed ~index in
  let b = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  line "replay: seed %d, kernel %d, style %s" seed index style;
  match Plan.build plan with
  | Error msg ->
      line "FAIL build: %s" msg;
      (Buffer.contents b, 2)
  | Ok case -> (
      Buffer.add_string b (render_case case);
      let analysis = Darsie_compiler.Analysis.analyze case.Plan.kernel in
      Buffer.add_string b
        (Format.asprintf "%a" Darsie_compiler.Analysis.pp_markings analysis);
      let v = Differential.check_case ?base_cfg case in
      match v.Differential.v_failure with
      | None ->
          line "PASS: %d warp insts, %d forwards, %d skips, %d cycles"
            v.Differential.v_warp_insts v.Differential.v_forwards
            v.Differential.v_skips v.Differential.v_cycles;
          (Buffer.contents b, 0)
      | Some f ->
          line "FAIL %s: %s" f.Differential.f_kind f.Differential.f_detail;
          line "replay: %s" (replay_command ~seed ~index);
          (Buffer.contents b, Differential.exit_code f))

let replay_corpus ?base_cfg ~dir () =
  let b = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  let worst = ref 0 in
  let bump code = if !worst = 0 then worst := code in
  match Corpus.load_dir dir with
  | [] ->
    (* nothing to replay is an input error, not a pass: a mistyped path
       would otherwise check nothing and succeed *)
    if Sys.file_exists dir && Sys.is_directory dir then
      (Printf.sprintf "corpus %s: no .fuzz files\n" dir, 1)
    else (Printf.sprintf "corpus %s: no such directory\n" dir, 1)
  | entries ->
    List.iter
      (fun (fname, res) ->
        match res with
        | Error msg ->
            line "%s: PARSE ERROR: %s" fname msg;
            bump 2
        | Ok e -> (
            match e.Corpus.e_kind with
            | None -> (
                let v = Differential.check_case ?base_cfg e.Corpus.e_case in
                match v.Differential.v_failure with
                | None -> line "%s: clean, full stack passes" fname
                | Some f ->
                    line "%s: FAIL %s: %s" fname f.Differential.f_kind
                      f.Differential.f_detail;
                    bump (Differential.exit_code f))
            | Some kind -> (
                let subj = Plan.subject e.Corpus.e_case in
                match Oracle.check_subject subj with
                | rep when not (Oracle.passed rep) ->
                    line "%s: FAIL: kernel no longer passes the clean oracle"
                      fname;
                    bump 7
                | _ -> (
                    let sites = sites_of kind (Oracle.candidates_subject subj) in
                    let site =
                      match e.Corpus.e_site with
                      | Some s when List.mem s sites -> Some s
                      | _ -> List.nth_opt sites 0
                    in
                    match site with
                    | None ->
                        line "%s: FAIL: no applicable %s site" fname
                          (Injector.kind_name kind);
                        bump 2
                    | Some site ->
                        if
                          Oracle.passed
                            (Oracle.check_fault_subject subj
                               { Injector.kind; site })
                        then begin
                          line "%s: FAIL: injected %s went undetected" fname
                            (Injector.kind_name kind);
                          bump 2
                        end
                        else
                          line "%s: injected %s detected" fname
                            (Injector.kind_name kind)))))
      entries;
    line "corpus result: %s" (if !worst = 0 then "PASS" else "FAIL");
    (Buffer.contents b, !worst)
