type t = {
  mutable cycles : int;
  mutable fetched : int;
  mutable icache_misses : int;
  mutable issued : int;
  mutable executed_threads : int;
  mutable skipped_prefetch : int;
  mutable dropped_issue : int;
  mutable elim_uniform : int;
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
  mutable l1_accesses : int;
  mutable l1_misses : int;
  mutable dram_transactions : int;
  mutable rf_bank_conflicts : int;
  mutable barrier_stall_cycles : int;
  mutable fetch_stall_cycles : int;
  mutable darsie_sync_stalls : int;
  mutable skip_table_probes : int;
  mutable rename_accesses : int;
  mutable coalescer_probes : int;
  mutable majority_updates : int;
}

let create () =
  {
    cycles = 0;
    fetched = 0;
    icache_misses = 0;
    issued = 0;
    executed_threads = 0;
    skipped_prefetch = 0;
    dropped_issue = 0;
    elim_uniform = 0;
    elim_affine = 0;
    elim_unstructured = 0;
    rf_reads = 0;
    rf_writes = 0;
    alu_ops = 0;
    sfu_ops = 0;
    mem_ops = 0;
    shared_accesses = 0;
    shared_bank_conflicts = 0;
    smem_replay_cycles = 0;
    l1_accesses = 0;
    l1_misses = 0;
    dram_transactions = 0;
    rf_bank_conflicts = 0;
    barrier_stall_cycles = 0;
    fetch_stall_cycles = 0;
    darsie_sync_stalls = 0;
    skip_table_probes = 0;
    rename_accesses = 0;
    coalescer_probes = 0;
    majority_updates = 0;
  }

let add acc x =
  acc.cycles <- max acc.cycles x.cycles;
  acc.fetched <- acc.fetched + x.fetched;
  acc.icache_misses <- acc.icache_misses + x.icache_misses;
  acc.issued <- acc.issued + x.issued;
  acc.executed_threads <- acc.executed_threads + x.executed_threads;
  acc.skipped_prefetch <- acc.skipped_prefetch + x.skipped_prefetch;
  acc.dropped_issue <- acc.dropped_issue + x.dropped_issue;
  acc.elim_uniform <- acc.elim_uniform + x.elim_uniform;
  acc.elim_affine <- acc.elim_affine + x.elim_affine;
  acc.elim_unstructured <- acc.elim_unstructured + x.elim_unstructured;
  acc.rf_reads <- acc.rf_reads + x.rf_reads;
  acc.rf_writes <- acc.rf_writes + x.rf_writes;
  acc.alu_ops <- acc.alu_ops + x.alu_ops;
  acc.sfu_ops <- acc.sfu_ops + x.sfu_ops;
  acc.mem_ops <- acc.mem_ops + x.mem_ops;
  acc.shared_accesses <- acc.shared_accesses + x.shared_accesses;
  acc.shared_bank_conflicts <- acc.shared_bank_conflicts + x.shared_bank_conflicts;
  acc.smem_replay_cycles <- acc.smem_replay_cycles + x.smem_replay_cycles;
  acc.l1_accesses <- acc.l1_accesses + x.l1_accesses;
  acc.l1_misses <- acc.l1_misses + x.l1_misses;
  acc.dram_transactions <- acc.dram_transactions + x.dram_transactions;
  acc.rf_bank_conflicts <- acc.rf_bank_conflicts + x.rf_bank_conflicts;
  acc.barrier_stall_cycles <- acc.barrier_stall_cycles + x.barrier_stall_cycles;
  acc.fetch_stall_cycles <- acc.fetch_stall_cycles + x.fetch_stall_cycles;
  acc.darsie_sync_stalls <- acc.darsie_sync_stalls + x.darsie_sync_stalls;
  acc.skip_table_probes <- acc.skip_table_probes + x.skip_table_probes;
  acc.rename_accesses <- acc.rename_accesses + x.rename_accesses;
  acc.coalescer_probes <- acc.coalescer_probes + x.coalescer_probes;
  acc.majority_updates <- acc.majority_updates + x.majority_updates

let note_eliminated t (shape : Darsie_compiler.Marking.shape) =
  match shape with
  | Uniform -> t.elim_uniform <- t.elim_uniform + 1
  | Affine -> t.elim_affine <- t.elim_affine + 1
  | Unstructured | Varying -> t.elim_unstructured <- t.elim_unstructured + 1

let total_eliminated t = t.skipped_prefetch + t.dropped_issue

let to_assoc t =
  [
    ("cycles", t.cycles);
    ("fetched", t.fetched);
    ("icache_misses", t.icache_misses);
    ("issued", t.issued);
    ("executed_threads", t.executed_threads);
    ("skipped_prefetch", t.skipped_prefetch);
    ("dropped_issue", t.dropped_issue);
    ("elim_uniform", t.elim_uniform);
    ("elim_affine", t.elim_affine);
    ("elim_unstructured", t.elim_unstructured);
    ("rf_reads", t.rf_reads);
    ("rf_writes", t.rf_writes);
    ("alu_ops", t.alu_ops);
    ("sfu_ops", t.sfu_ops);
    ("mem_ops", t.mem_ops);
    ("shared_accesses", t.shared_accesses);
    ("shared_bank_conflicts", t.shared_bank_conflicts);
    ("smem_replay_cycles", t.smem_replay_cycles);
    ("l1_accesses", t.l1_accesses);
    ("l1_misses", t.l1_misses);
    ("dram_transactions", t.dram_transactions);
    ("rf_bank_conflicts", t.rf_bank_conflicts);
    ("barrier_stall_cycles", t.barrier_stall_cycles);
    ("fetch_stall_cycles", t.fetch_stall_cycles);
    ("darsie_sync_stalls", t.darsie_sync_stalls);
    ("skip_table_probes", t.skip_table_probes);
    ("rename_accesses", t.rename_accesses);
    ("coalescer_probes", t.coalescer_probes);
    ("majority_updates", t.majority_updates);
  ]

let pp fmt t =
  Format.fprintf fmt
    "cycles=%d fetched=%d issued=%d skipped=%d dropped=%d (uni=%d aff=%d \
     unstr=%d) rf=%d/%d l1=%d/%d dram=%d sync_stalls=%d"
    t.cycles t.fetched t.issued t.skipped_prefetch t.dropped_issue
    t.elim_uniform t.elim_affine t.elim_unstructured t.rf_reads t.rf_writes
    t.l1_accesses t.l1_misses t.dram_transactions t.darsie_sync_stalls
