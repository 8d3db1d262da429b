(** Timing-model configuration (paper Table 2, scaled).

    The paper models a GTX 1080 Ti (Pascal): 28 SMs, 64 warps/SM, 32
    TBs/SM, 2K vector registers per SM, 4 GTO warp schedulers. We default
    to 4 SMs so the full evaluation runs in seconds on a laptop; all other
    per-SM parameters follow the paper. *)

(** Warp-issue scheduling policy: greedy-then-oldest (the paper's best
    performer) or loose round robin. The paper reports these regular
    applications are largely insensitive to the choice. *)
type scheduler = Gto | Lrr

type t = {
  num_sms : int;
  warp_size : int;
  max_warps_per_sm : int;
  max_tbs_per_sm : int;
  regfile_vregs : int;  (** vector registers per SM *)
  rf_banks : int;
  num_schedulers : int;
  scheduler : scheduler;
  issue_per_scheduler : int;  (** dual issue = 2 *)
  fetch_width : int;  (** warps fetched from per SM per cycle *)
  issue_width : int;
      (** fetch-bundle width: sequential instructions fetched from one
          selected warp in one cycle (milo832-style dual-issue
          superscalar fetch = 2). Each bundle slot re-consults the
          engine's fetch gate and pre-fetch skip path independently, so
          a skipped leader can pair with its follower. [1] (default)
          reproduces the original single-issue fetch exactly *)
  ibuf_depth : int;  (** per-warp instruction buffer entries *)
  shared_bytes_per_sm : int;
  barrier_lat : int;
      (** cycles from last-warp arrival to barrier release (the barrier
          network round trip; also charged to SILICON-SYNC branches) *)
  alu_lat : int;
  sfu_lat : int;
  shared_lat : int;
  icache_bytes : int;  (** per-SM instruction cache *)
  icache_line : int;  (** instructions share 128B lines (16 instructions) *)
  icache_miss_lat : int;
  collector_units : int;
      (** operand-collector units: instructions concurrently gathering
          register operands (structural limit on issue) *)
  l1_lat : int;
  l1_bytes : int;
  l1_assoc : int;
  l1_line : int;
  dram_lat : int;
  dram_txn_cycles : int;  (** cycles of DRAM channel occupancy per 128B transaction *)
  mshrs : int;
      (** per-warp miss-status holding registers: outstanding L1-missed
          lines a single warp may have in flight; a global load needs a
          free MSHR to issue and allocates one per missed line, released
          out of order at writeback. [0] (default) models unlimited
          MSHRs — the original idealized memory path, bit-identical to
          the pre-knob simulator. The milo832 spec value is 64 *)
  smem_banks : int;
      (** shared-memory banks with conflict {e replay}: a conflicting
          shared access holds the shared port for its serialized replay
          cycles, blocking further shared issues and charging the
          [Mem_struct] stall bucket. [0] (default) keeps the legacy
          model — conflicts only lengthen the access's own latency
          (computed over [warp_size] banks) without occupying the port *)
  sfu_per_cycle : int;
  mem_per_cycle : int;  (** memory instructions issued per SM per cycle *)
  sync_at_branches : bool;
      (** SILICON-SYNC: a TB-wide barrier at every basic-block boundary *)
  skip_entries_per_tb : int;  (** DARSIE PC-skip-table entries per TB *)
  rename_regs_per_tb : int;  (** DARSIE renamed physical registers per TB *)
  coalescer_ports : int;  (** PC-coalescer ports: distinct skip PCs per cycle *)
  max_skips_per_warp_cycle : int;
  max_cycles : int;
      (** hard simulation cycle bound; exceeding it is a
          [Sim_error.Cycle_bound] *)
  watchdog_cycles : int;
      (** deadlock watchdog: fail when no warp makes progress and no
          memory request is in flight for this many consecutive cycles;
          [0] disables the watchdog *)
  fast_forward : bool;
      (** event-driven idle-cycle fast-forwarding: while an SM is
          stalled on known-latency events, jump its clock to its next
          wake-up and bulk-charge the skipped span. Bit-identical to
          stepping every cycle; [false] wakes every SM at every cycle
          (the [--no-fast-forward] escape hatch) *)
  sm_domains : int;
      (** host-side worker domains one {!Gpu.run} shards its SM array
          across. [1] (default) runs one shard on the calling domain;
          [0] auto-sizes to [min num_sms (Domain.recommended_domain_count
          ())]. Results are bit-identical at every domain count — this
          is a host performance knob, not a machine parameter, so it is
          excluded from {!knobs} and from the metrics [machine_config]
          echo *)
}

val default : t

val pp : Format.formatter -> t -> unit
(** Render the configuration as a Table-2 style listing. *)

val knobs : t -> (string * int) list
(** Stable [(name, value)] listing of every integer knob. The
    machine-model doc quotes defaults as ["`name` = value"]; the docs
    test validates each quoted default against [knobs default]. *)
