(** DARSIE: the fetch-stage instruction-skipping engine (paper §4).

    Plugs into the timing model's {!Darsie_timing.Engine} interface. Per
    resident threadblock it maintains a {!Skip_table} (PC skip table +
    register versioning + physical-register freelist), a {!Majority} path
    mask and a branch-synchronization table. Each cycle, up to
    [coalescer_ports] distinct skip PCs are processed (the PC coalescer);
    warps at those PCs skip up to [max_skips_per_warp_cycle] consecutive
    TB-redundant instructions by incrementing their PC, never touching the
    I-cache.

    Semantics follow the paper:
    - the first majority-path warp to reach a TB-redundant PC becomes the
      {e leader}: it allocates a skip-table instance and a renamed register
      and executes the instruction normally;
    - {e followers} wait until the leader's writeback ([LeaderWB]) and then
      skip, remapping their register version;
    - a waiting warp (a follower before [LeaderWB], or a warp at an
      unreleased branch sync) sleeps instead of being re-examined every
      cycle, and is woken by an event that can end its wait: a writeback
      at its PC, a store or atomic flushing its TB's load entries, or a
      barrier; for a sync, its release or any change to the TB's
      majority;
    - branches force a TB-wide synchronization among majority-path warps;
      warps whose successor differs from the majority are dropped from the
      path, as are warps that issue under a partial SIMD mask;
    - barriers reset the majority mask and flush the skip table;
    - stores flush load entries (unless [ignore_store] — the paper's
      DARSIE-IGNORE-STORE ablation);
    - [no_cf_sync] removes every DARSIE-induced stall (the paper's
      DARSIE-NO-CF-SYNC idealization). *)

type options = {
  ignore_store : bool;  (** DARSIE-IGNORE-STORE *)
  no_cf_sync : bool;  (** DARSIE-NO-CF-SYNC *)
}

val default_options : options

val factory : ?options:options -> unit -> Darsie_timing.Engine.factory

val name_of : options -> string
