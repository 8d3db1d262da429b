# Convenience entry points; everything ultimately goes through dune.

DUNE ?= dune
SMOKE_DIR ?= /tmp/darsie-smoke

.PHONY: all build test verify doc cli-docs export-smoke check-smoke \
  fuzz-smoke cache-smoke fastforward-smoke telemetry-smoke shard-smoke \
  perfbench-gate clean

all: build

build:
	$(DUNE) build

test:
	$(DUNE) runtest

# The tier-1 gate: a clean build plus the full test suite.
verify:
	$(DUNE) build && $(DUNE) runtest

# API reference for every public .mli (requires odoc).
doc:
	$(DUNE) build @doc

# Regenerate docs/cli.md from the binary's --help; CI diffs the result.
cli-docs: build
	./tools/update-cli-docs.sh

# Export smoke: every metrics-document writer — profile (plus a Chrome
# trace and CSV series), annotate on two machines (per-PC charges),
# explain on a 1D and a multi-dim app (skip ledger), and run at
# non-default fidelity knobs (dual-issue fetch + an MSHR limit) — writes
# its JSON, and one `darsie validate` re-proves every identity from the
# files. The fidelity file's machine_config echo is checked against the
# flags that produced it (an echo, not an identity). Negative lines: a
# copy of mm.json with "cycles" corrupted must exit 2, and three input
# errors must exit 1 — --scale 0, an unwritable --json path, and --json
# on an experiment that writes no document.
export-smoke: build
	mkdir -p $(SMOKE_DIR)
	$(DUNE) exec bin/darsie.exe -- profile MM -m DARSIE \
	  --json $(SMOKE_DIR)/mm.json \
	  --chrome-trace $(SMOKE_DIR)/mm.trace.json \
	  --csv $(SMOKE_DIR)/mm.csv
	$(DUNE) exec bin/darsie.exe -- annotate MM -m DARSIE -m DAC-IDEAL \
	  --top 5 --json $(SMOKE_DIR)/mm_annotate.json
	$(DUNE) exec bin/darsie.exe -- explain LIB --top 3 \
	  --json $(SMOKE_DIR)/lib_explain.json
	$(DUNE) exec bin/darsie.exe -- explain MM --top 3 \
	  --json $(SMOKE_DIR)/mm_explain.json
	$(DUNE) exec bin/darsie.exe -- run MM -m DARSIE \
	  --issue-width 2 --mshrs 8 --json $(SMOKE_DIR)/fidelity.json > /dev/null
	$(DUNE) exec bin/darsie.exe -- validate $(SMOKE_DIR)/mm.json \
	  $(SMOKE_DIR)/mm_annotate.json $(SMOKE_DIR)/lib_explain.json \
	  $(SMOKE_DIR)/mm_explain.json $(SMOKE_DIR)/fidelity.json
	jq -e '(.stall_attribution.total | has("mem_struct")) and .machine_config.issue_width == 2 and .machine_config.mshrs == 8' \
	  $(SMOKE_DIR)/fidelity.json > /dev/null \
	  || { echo "machine_config echo or mem_struct bucket missing"; exit 1; }
	sed '0,/"cycles": /s//"cycles": 1/' $(SMOKE_DIR)/mm.json \
	  > $(SMOKE_DIR)/mm_bad.json
	$(DUNE) exec bin/darsie.exe -- validate $(SMOKE_DIR)/mm_bad.json; \
	  test $$? -eq 2 || { echo "corrupted cycles not rejected"; exit 1; }
	for args in "run MM --scale 0" "limit MM --scale 0" \
	  "experiment fig8 --scale 0" \
	  "run MM --json $(SMOKE_DIR)/no-such-dir/mm.json" \
	  "experiment table2 --json $(SMOKE_DIR)/table2.json"; do \
	  $(DUNE) exec bin/darsie.exe -- $$args > /dev/null; \
	  test $$? -eq 1 || { echo "darsie $$args: expected exit 1"; exit 1; }; \
	done

# Robustness smoke: differential oracle plus seeded fault injection on
# two apps (LIB has candidates for all three fault kinds), exported and
# re-validated as a check report. Exits nonzero — with a per-failure-class
# code — if anything escapes.
check-smoke: build
	mkdir -p $(SMOKE_DIR)
	$(DUNE) exec bin/darsie.exe -- check MM --inject 3 --seed 7 \
	  --json $(SMOKE_DIR)/check_mm.json
	$(DUNE) exec bin/darsie.exe -- check LIB --inject 6 --seed 7 \
	  --json $(SMOKE_DIR)/check_lib.json

# Fuzzer smoke: a fixed-seed 100-kernel campaign through the stacked
# differential (every generated kernel must pass the oracle, the
# fast-forward bit-identity check and the accounting invariants; exits
# 7 on an oracle mismatch, 2 on anything else), the same campaign's
# report re-validated as JSON, then a replay of every committed
# counterexample witness in test/corpus/.
fuzz-smoke: build
	mkdir -p $(SMOKE_DIR)
	$(DUNE) exec bin/darsie.exe -- fuzz --seed 0 --count 100 \
	  --json $(SMOKE_DIR)/fuzz.json
	$(DUNE) exec bin/darsie.exe -- fuzz --seed 0 --count 100 --sm-domains 2 \
	  --json $(SMOKE_DIR)/fuzz_shard.json
	$(DUNE) exec bin/darsie.exe -- fuzz --replay-corpus test/corpus

# Trace-cache smoke: the same profiled run twice through a fresh cache
# directory must miss-then-hit and print byte-identical output.
cache-smoke: build
	mkdir -p $(SMOKE_DIR)
	rm -rf $(SMOKE_DIR)/cache
	$(DUNE) exec bin/darsie.exe -- run MM -m DARSIE \
	  --cache $(SMOKE_DIR)/cache | tee $(SMOKE_DIR)/cache_run1.txt \
	  | grep -q "1 miss"
	$(DUNE) exec bin/darsie.exe -- run MM -m DARSIE \
	  --cache $(SMOKE_DIR)/cache | tee $(SMOKE_DIR)/cache_run2.txt \
	  | grep -q "1 hit"
	grep -v "trace cache:" $(SMOKE_DIR)/cache_run1.txt > $(SMOKE_DIR)/cache_run1.cmp
	grep -v "trace cache:" $(SMOKE_DIR)/cache_run2.txt > $(SMOKE_DIR)/cache_run2.cmp
	diff $(SMOKE_DIR)/cache_run1.cmp $(SMOKE_DIR)/cache_run2.cmp

# Fast-forward smoke: the event-driven cycle loop must leave every
# simulated metric bit-identical to stepping each cycle. One
# memory-bound app (the subset where the jumps are biggest), serial,
# full metrics document on vs off, byte-diffed after masking the
# machine_config.fast_forward echo (schema v3 records which strategy
# produced the file; everything simulated must still match exactly).
fastforward-smoke: build
	mkdir -p $(SMOKE_DIR)
	$(DUNE) exec bin/darsie.exe -- run BIN -m DARSIE -j 1 \
	  --json $(SMOKE_DIR)/ff_on.json > /dev/null
	$(DUNE) exec bin/darsie.exe -- run BIN -m DARSIE -j 1 \
	  --no-fast-forward --json $(SMOKE_DIR)/ff_off.json > /dev/null
	jq '.machine_config.fast_forward = true' $(SMOKE_DIR)/ff_on.json \
	  > $(SMOKE_DIR)/ff_on.cmp
	jq '.machine_config.fast_forward = true' $(SMOKE_DIR)/ff_off.json \
	  > $(SMOKE_DIR)/ff_off.cmp
	diff $(SMOKE_DIR)/ff_on.cmp $(SMOKE_DIR)/ff_off.cmp

# Host-telemetry smoke: a full-matrix run with spans on, the exported
# document re-proved from the file by `darsie validate` (the CLI already
# validated it before writing; this checks the serialized form): the
# span clock's integer identity — sum of per-phase self_ns equals sum
# of per-domain busy_ns, exactly — and a non-empty traceEvents list
# whose every entry has a "ph". Then the summary renderer runs over the
# same file.
telemetry-smoke: build
	mkdir -p $(SMOKE_DIR)
	$(DUNE) exec bin/darsie.exe -- experiment fig8 -j 2 \
	  --telemetry $(SMOKE_DIR)/telemetry.json > /dev/null
	$(DUNE) exec bin/darsie.exe -- validate $(SMOKE_DIR)/telemetry.json
	$(DUNE) exec bin/darsie.exe -- telemetry-summary $(SMOKE_DIR)/telemetry.json \
	  | grep -q "host telemetry:"

# Sharded-cycle-loop smoke: one big-grid simulation (MM at --scale 4,
# 64 thread blocks) with the SM array sharded across worker domains
# must produce a metrics document byte-identical to one shard on the
# calling domain. --sm-domains is a host knob excluded from the
# machine_config echo, so the diff needs no masking at all; both
# auto-sizing (0) and an explicit count are compared against 1. The
# per-instruction exports (profile's metrics, series CSV and Chrome
# trace with every pipeline event; annotate's per-PC JSON) must match
# byte for byte too.
shard-smoke: build
	mkdir -p $(SMOKE_DIR)
	$(DUNE) exec bin/darsie.exe -- run MM -m DARSIE --scale 4 -j 1 \
	  --cache $(SMOKE_DIR)/shardcache --sm-domains 1 \
	  --json $(SMOKE_DIR)/shard_serial.json > /dev/null
	$(DUNE) exec bin/darsie.exe -- run MM -m DARSIE --scale 4 -j 1 \
	  --cache $(SMOKE_DIR)/shardcache --sm-domains 0 \
	  --json $(SMOKE_DIR)/shard_auto.json > /dev/null
	$(DUNE) exec bin/darsie.exe -- run MM -m DARSIE --scale 4 -j 1 \
	  --cache $(SMOKE_DIR)/shardcache --sm-domains 2 \
	  --json $(SMOKE_DIR)/shard_two.json > /dev/null
	diff $(SMOKE_DIR)/shard_serial.json $(SMOKE_DIR)/shard_auto.json
	diff $(SMOKE_DIR)/shard_serial.json $(SMOKE_DIR)/shard_two.json
	for d in 1 2; do \
	  $(DUNE) exec bin/darsie.exe -- profile MM -m DARSIE --scale 4 \
	    --cache $(SMOKE_DIR)/shardcache --sm-domains $$d \
	    --json $(SMOKE_DIR)/shard$${d}_profile.json \
	    --csv $(SMOKE_DIR)/shard$${d}_profile.csv \
	    --chrome-trace $(SMOKE_DIR)/shard$${d}_profile.trace.json > /dev/null \
	    || exit 1; \
	  $(DUNE) exec bin/darsie.exe -- annotate MM -m DARSIE --scale 4 -j 1 \
	    --cache $(SMOKE_DIR)/shardcache --sm-domains $$d \
	    --json $(SMOKE_DIR)/shard$${d}_annotate.json > /dev/null || exit 1; \
	done
	for f in profile.json profile.csv profile.trace.json annotate.json; do \
	  cmp -s $(SMOKE_DIR)/shard1_$$f $(SMOKE_DIR)/shard2_$$f \
	    || { echo "$$f differs between 1 and 2 domains"; exit 1; }; \
	done

# Benchmark exact-output gate: perfbench's matrix and large workloads
# each run one timed pass and must reproduce every digest in
# perfbench/expected/ — cycles, Stats, stall attribution and skip
# ledger of all 91 matrix cells and of both large simulations. run.py
# exits 0 on a digest mismatch and reports it only as "correct": false
# on its last line, so the jq check is the gate. fuzz stays out: its
# expectation records the campaign's known oracle failures, and
# fuzz-smoke covers the fuzz path.
perfbench-gate:
	mkdir -p $(SMOKE_DIR)
	for w in matrix large; do \
	  python3 perfbench/run.py --workload $$w --seconds 0 \
	    > $(SMOKE_DIR)/perfbench-$$w.txt \
	    && tail -n 1 $(SMOKE_DIR)/perfbench-$$w.txt \
	      | jq -e '.correct and .failed == 0' > /dev/null \
	    || { cat $(SMOKE_DIR)/perfbench-$$w.txt; \
	      echo "perfbench $$w failed or differs from perfbench/expected/"; \
	      exit 1; }; \
	done

clean:
	$(DUNE) clean
