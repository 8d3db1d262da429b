(** Event counters collected by the timing model.

    These counters drive both the performance results (cycles, instruction
    reductions by taxonomy class) and the energy model, which assigns a
    per-event energy to each counter. *)

type t = {
  mutable cycles : int;
  mutable fetched : int;  (** warp instructions fetched (I-cache accesses) *)
  mutable icache_misses : int;
  mutable issued : int;  (** warp instructions issued to execution *)
  mutable executed_threads : int;  (** thread-level instructions executed *)
  mutable skipped_prefetch : int;
      (** warp instructions eliminated before fetch (DARSIE skips, DAC
          stream removal) *)
  mutable dropped_issue : int;  (** eliminated at issue (UV reuse hits) *)
  mutable elim_uniform : int;  (** eliminated instructions by static shape *)
  mutable elim_affine : int;
  mutable elim_unstructured : int;
  mutable rf_reads : int;
  mutable rf_writes : int;
  mutable alu_ops : int;
  mutable sfu_ops : int;
  mutable mem_ops : int;
  mutable shared_accesses : int;
  mutable shared_bank_conflicts : int;
  mutable smem_replay_cycles : int;
      (** shared-port cycles spent serializing bank-conflict replays;
          counted only when [Config.smem_banks] > 0 *)
  mutable l1_accesses : int;
  mutable l1_misses : int;
  mutable dram_transactions : int;
  mutable rf_bank_conflicts : int;
  mutable barrier_stall_cycles : int;  (** warp-cycles spent at barriers *)
  mutable fetch_stall_cycles : int;
      (** cycles the fetch stage found nothing fetchable *)
  mutable darsie_sync_stalls : int;
      (** warp-cycles stalled by DARSIE synchronization (branch sync,
          follower waiting for LeaderWB, freelist pressure) *)
  mutable skip_table_probes : int;
  mutable rename_accesses : int;
  mutable coalescer_probes : int;
  mutable majority_updates : int;
}

val create : unit -> t

val add : t -> t -> unit
(** [add acc x] accumulates [x] into [acc] (cycles take the max, for
    summing per-SM stats into a GPU total). *)

val note_eliminated : t -> Darsie_compiler.Marking.shape -> unit
(** Count one eliminated instruction under its static shape:
    [elim_uniform], [elim_affine], or [elim_unstructured] (which also
    takes [Varying]). Every elimination site calls this. *)

val total_eliminated : t -> int

val to_assoc : t -> (string * int) list
(** Every counter, in declaration order — the exporters' schema and
    {!Gpu.outputs} depend on these names staying put. *)

val pp : Format.formatter -> t -> unit
