(** The stacked differential: every generated kernel runs through all
    three of the repo's cross-checking layers in sequence.

    1. {e Functional oracle} — DARSIE-mode functional replay vs the BASE
       emulator ({!Darsie_check.Oracle.check_subject}): forwarded values,
       instruction counts, final registers and memory must agree.
    2. {e Fast-forward bit-identity} — the same trace replayed through the
       DARSIE timing engine with event-driven fast-forwarding on and off:
       cycles, stats, stall attribution, skip telemetry and the skip
       ledger must match bit-for-bit.
    3. {e Accounting invariants} — {!Darsie_timing.Gpu.check_invariants}
       on both timing runs: {!Darsie_timing.Gpu.check_attribution} (every
       simulated cycle lands in exactly one stall bucket) on each, then
       {!Darsie_timing.Gpu.check_ledger} (eligible = sum of fates, per SM
       and aggregated) on each.

    A failure carries a stable kind tag — the shrinker's predicate is
    "the same kind still fails", so minimization never wanders from an
    oracle bug onto an unrelated crash. *)

type failure = {
  f_kind : string;
      (** ["build"], ["crash"], ["oracle"], ["timing"],
          ["ff_divergence"], ["attribution"] or ["ledger"] *)
  f_detail : string;  (** deterministic one-to-few-line description *)
}

type verdict = {
  v_failure : failure option;  (** [None]: all three layers agree *)
  v_forwards : int;  (** follower substitutions the oracle checked *)
  v_warp_insts : int;  (** dynamic warp instructions (base run) *)
  v_cycles : int;  (** DARSIE timing cycles (fast-forward on) *)
  v_skips : int;  (** instructions skipped by the timing engine *)
}

val check_case : ?base_cfg:Darsie_timing.Config.t -> Plan.case -> verdict
(** [base_cfg] (default {!Darsie_timing.Config.default}) sets the
    machine point the timing stages run at — e.g. a non-default
    [issue_width] / [mshrs] / [smem_banks] — so fuzz campaigns can
    exercise the whole differential stack at every fidelity knob
    setting. The [fast_forward] and [max_cycles] fields are overridden
    by the stack itself. *)

val exit_code : failure -> int
(** Process exit code for a campaign that ends on this failure: oracle
    mismatches exit 7, everything else is an invariant violation (2) —
    the same codes the rest of the CLI uses. *)
