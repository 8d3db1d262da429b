type scheduler = Gto | Lrr

type t = {
  num_sms : int;
  warp_size : int;
  max_warps_per_sm : int;
  max_tbs_per_sm : int;
  regfile_vregs : int;
  rf_banks : int;
  num_schedulers : int;
  scheduler : scheduler;
  issue_per_scheduler : int;
  fetch_width : int;
  issue_width : int;
  ibuf_depth : int;
  shared_bytes_per_sm : int;
  barrier_lat : int;
  alu_lat : int;
  sfu_lat : int;
  shared_lat : int;
  icache_bytes : int;
  icache_line : int;
  icache_miss_lat : int;
  collector_units : int;
  l1_lat : int;
  l1_bytes : int;
  l1_assoc : int;
  l1_line : int;
  dram_lat : int;
  dram_txn_cycles : int;
  mshrs : int;
  smem_banks : int;
  sfu_per_cycle : int;
  mem_per_cycle : int;
  sync_at_branches : bool;
  skip_entries_per_tb : int;
  rename_regs_per_tb : int;
  coalescer_ports : int;
  max_skips_per_warp_cycle : int;
  max_cycles : int;
  watchdog_cycles : int;
  fast_forward : bool;
  sm_domains : int;
}

let default =
  {
    num_sms = 4;
    warp_size = 32;
    max_warps_per_sm = 64;
    max_tbs_per_sm = 32;
    regfile_vregs = 2048;
    rf_banks = 16;
    num_schedulers = 4;
    scheduler = Gto;
    issue_per_scheduler = 2;
    fetch_width = 2;
    issue_width = 1;
    ibuf_depth = 2;
    shared_bytes_per_sm = 96 * 1024;
    barrier_lat = 20;
    alu_lat = 4;
    sfu_lat = 16;
    shared_lat = 24;
    icache_bytes = 8 * 1024;
    icache_line = 128;
    icache_miss_lat = 50;
    collector_units = 8;
    l1_lat = 28;
    l1_bytes = 32 * 1024;
    l1_assoc = 8;
    l1_line = 128;
    dram_lat = 220;
    dram_txn_cycles = 2;
    mshrs = 0;
    smem_banks = 0;
    sfu_per_cycle = 1;
    mem_per_cycle = 1;
    sync_at_branches = false;
    skip_entries_per_tb = 8;
    rename_regs_per_tb = 32;
    coalescer_ports = 2;
    max_skips_per_warp_cycle = 8;
    max_cycles = 500_000_000;
    watchdog_cycles = 50_000;
    fast_forward = true;
    sm_domains = 1;
  }

let pp fmt c =
  Format.fprintf fmt
    "GPU        | %d SMs, %d warps/SM, %d thread blocks/SM@\n\
     SM         | %d SIMD width, %d vector registers per SM@\n\
     Scheduler  | %d warp schedulers/SM, %s scheduling, dual issue %d@\n\
     Frontend   | fetch width %d, bundle width %d, %d-entry I-buffers, %d KB \
     I-cache@\n\
     Shared mem | %d KB/SM, latency %d, %s@\n\
     L1         | %d KB, %d-way, %dB lines, hit latency %d@\n\
     DRAM       | latency %d, %d cycles/transaction, %s@\n\
     DARSIE     | %d skip entries/TB, %d rename regs/TB, %d coalescer ports@\n\
     Limits     | %d max cycles, watchdog %s"
    c.num_sms c.max_warps_per_sm c.max_tbs_per_sm c.warp_size c.regfile_vregs
    c.num_schedulers
    (match c.scheduler with Gto -> "GTO" | Lrr -> "LRR")
    c.issue_per_scheduler c.fetch_width c.issue_width c.ibuf_depth
    (c.icache_bytes / 1024)
    (c.shared_bytes_per_sm / 1024)
    c.shared_lat
    (if c.smem_banks = 0 then "no bank-conflict replay"
     else Printf.sprintf "%d banks with conflict replay" c.smem_banks)
    (c.l1_bytes / 1024) c.l1_assoc c.l1_line c.l1_lat c.dram_lat
    c.dram_txn_cycles
    (if c.mshrs = 0 then "unlimited MSHRs"
     else Printf.sprintf "%d MSHRs/warp" c.mshrs)
    c.skip_entries_per_tb c.rename_regs_per_tb c.coalescer_ports c.max_cycles
    (if c.watchdog_cycles = 0 then "off"
     else Printf.sprintf "%d idle cycles" c.watchdog_cycles)

(* Stable name -> value listing of every integer knob; docs/machine-model.md
   quotes these as "`name` = value" and test_docs cross-checks the quoted
   defaults against this table, so the doc cannot drift from the code. *)
let knobs c =
  [
    ("num_sms", c.num_sms);
    ("warp_size", c.warp_size);
    ("max_warps_per_sm", c.max_warps_per_sm);
    ("max_tbs_per_sm", c.max_tbs_per_sm);
    ("regfile_vregs", c.regfile_vregs);
    ("rf_banks", c.rf_banks);
    ("num_schedulers", c.num_schedulers);
    ("issue_per_scheduler", c.issue_per_scheduler);
    ("fetch_width", c.fetch_width);
    ("issue_width", c.issue_width);
    ("ibuf_depth", c.ibuf_depth);
    ("shared_bytes_per_sm", c.shared_bytes_per_sm);
    ("barrier_lat", c.barrier_lat);
    ("alu_lat", c.alu_lat);
    ("sfu_lat", c.sfu_lat);
    ("shared_lat", c.shared_lat);
    ("icache_bytes", c.icache_bytes);
    ("icache_line", c.icache_line);
    ("icache_miss_lat", c.icache_miss_lat);
    ("collector_units", c.collector_units);
    ("l1_lat", c.l1_lat);
    ("l1_bytes", c.l1_bytes);
    ("l1_assoc", c.l1_assoc);
    ("l1_line", c.l1_line);
    ("dram_lat", c.dram_lat);
    ("dram_txn_cycles", c.dram_txn_cycles);
    ("mshrs", c.mshrs);
    ("smem_banks", c.smem_banks);
    ("sfu_per_cycle", c.sfu_per_cycle);
    ("mem_per_cycle", c.mem_per_cycle);
    ("skip_entries_per_tb", c.skip_entries_per_tb);
    ("rename_regs_per_tb", c.rename_regs_per_tb);
    ("coalescer_ports", c.coalescer_ports);
    ("max_skips_per_warp_cycle", c.max_skips_per_warp_cycle);
  ]
