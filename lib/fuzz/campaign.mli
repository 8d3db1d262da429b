(** Fuzz campaigns: seeded batches of generated kernels through the
    stacked differential, with shrinking, corpus management and replay.

    Scheduling uses {!Darsie_harness.Parallel} with input-order result
    merging, and each kernel's generation stream depends only on
    [(seed, index)] — so a campaign's report (text and JSON) is
    byte-identical at any [-j], and any kernel can be replayed alone
    with [--replay SEED:INDEX]. Failures are shrunk in the worker that
    found them; corpus files are written after the deterministic merge,
    in index order. *)

type config = {
  seed : int;
  count : int;
  jobs : int option;  (** [None]: {!Darsie_harness.Parallel.default_jobs} *)
  max_shrink : int;  (** shrinker predicate-evaluation budget per failure *)
  corpus_dir : string option;  (** write shrunk counterexamples here *)
  inject : bool;
      (** fault-injection mode: instead of expecting every kernel to
          pass, find a kernel with an applicable injection site for each
          fault kind, verify the stacked oracle detects the injected
          fault, and shrink that kernel to a minimal witness *)
  base_cfg : Darsie_timing.Config.t;
      (** machine point the timing stages run at (pass
          [Darsie_timing.Config.default] for the legacy behaviour);
          lets campaigns exercise non-default [issue_width] / [mshrs] /
          [smem_banks] settings through the whole stack *)
}

type failure_rec = {
  fr_index : int;
  fr_style : string;
  fr_kind : string;
  fr_detail : string;
  fr_replay : string;  (** exact command line reproducing this kernel *)
  fr_items_before : int;
  fr_items_after : int;
  fr_evals : int;  (** shrinker predicate evaluations spent *)
  fr_case : Plan.case option;  (** the shrunk kernel ([None] iff build failure) *)
  fr_file : string option;  (** corpus path, when [corpus_dir] was given *)
}

type inject_rec = {
  ir_kind : string;
  ir_index : int option;  (** first kernel with an applicable site *)
  ir_detected : bool;
  ir_site : Darsie_check.Injector.site option;  (** site in the shrunk kernel *)
  ir_insts : int;  (** instruction count of the shrunk witness *)
  ir_file : string option;
}

type report = {
  r_seed : int;
  r_count : int;
  r_inject : bool;
  r_kernels : int;
  r_passed : int;
  r_styles : (string * int) list;  (** sorted by style name *)
  r_promoted : int;  (** kernels whose block geometry promotes CR to DR *)
  r_warp_insts : int;
  r_forwards : int;
  r_skips : int;
  r_cycles : int;
  r_failures : failure_rec list;
  r_injects : inject_rec list;
}

val run : config -> report

val passed : report -> bool
(** Clean mode: no failures. Inject mode: every fault kind found an
    applicable site and was detected. *)

val exit_code : report -> int
(** [0] when {!passed}; otherwise [7] if the first failure is an oracle
    mismatch, [2] for everything else. *)

val render : report -> string
(** Deterministic human-readable summary — independent of [jobs] and
    wall-clock, so CI can diff it. *)

val to_json : report -> Darsie_obs.Json.t
(** ["fuzz_campaign"] document, validated by
    {!Darsie_harness.Metrics.validate}. *)

val replay :
  ?base_cfg:Darsie_timing.Config.t -> seed:int -> index:int -> unit ->
  string * int
(** Regenerate kernel [index] of campaign [seed], run the full stack on
    it alone (at [base_cfg], default the stock machine), and return the
    rendered case (geometry, assembly, verdict) plus a process exit
    code. *)

val replay_corpus :
  ?base_cfg:Darsie_timing.Config.t -> dir:string -> unit -> string * int
(** Re-run every [*.fuzz] file: clean entries must pass the stacked
    differential; injected entries must pass clean {e and} have their
    recorded fault detected when re-injected. A missing [dir], or one
    without [*.fuzz] files, is an input error: one line and code 1. *)
