(** Ablation studies of DARSIE's hardware parameters.

    The paper fixes the design point (8 skip entries/TB, 32 renamed
    registers/TB, a 2-port PC coalescer, §4.3/§6.3) and reports that the
    coalescer was sized experimentally. These sweeps regenerate that
    design-space exploration on representative workloads: each row is one
    parameter value, with DARSIE's speedup and instruction reduction at
    that point. *)

type point = {
  value : int;
  speedup : float;
  reduction_pct : float;  (** eliminated / baseline issued *)
  sync_stalls : int;
}

type sweep = {
  parameter : string;
  app : string;
  points : point list;
}

val sweep_skip_entries : ?values:int list -> Suite.app -> sweep

val sweep_coalescer_ports : ?values:int list -> Suite.app -> sweep

val sweep_rename_regs : ?values:int list -> Suite.app -> sweep

val sweep_max_chain : ?values:int list -> Suite.app -> sweep
(** Maximum consecutive skips per warp per cycle (the +8 adder chain). *)

val scheduler_comparison :
  Suite.app list -> (string * float * float) list
(** Per app: (abbr, GTO baseline IPC, LRR baseline IPC) — reproducing the
    paper's methodology note that these regular applications are
    insensitive to warp-scheduler choice, with GTO the best option. *)

val render_schedulers : (string * float * float) list -> string

val mechanism_efficiency :
  Suite.app list -> (string * float * float * float) list
(** Per app: (abbr, DARSIE speedup, TB-IDEAL speedup, fraction of the
    ideal's eliminated instructions that DARSIE's real mechanism also
    eliminates). TB-IDEAL removes every follower instance of a
    TB-redundant instruction at zero cost — an upper bound on what the
    skip table, coalescer and synchronization can deliver. *)

val render_efficiency : (string * float * float * float) list -> string

val run_default :
  unit -> sweep list
(** The sweeps [darsie experiment ablations] reports: skip entries,
    ports, rename registers and chain length on MM (capacity-sensitive)
    and CONVTEX (throughput-sensitive). *)

val render : sweep -> string
