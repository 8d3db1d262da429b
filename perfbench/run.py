#!/usr/bin/env python3
"""Run the simulator benchmark: build it, set up, time, check, report.

    python3 perfbench/run.py --workload matrix|large|fuzz|all \
        [--seed N] [--seconds S] [--trace 0|1] \
        [--fuzz-seed N] [--fuzz-count K] [--large-app APP] [--large-scale N]
    python3 perfbench/run.py --record --workload W [...]

Run it from the root of the repository. It builds perfbench/main.exe with
dune into .bench_build/, runs the workload's cold set-up several times,
each in a fresh process and a fresh trace-cache directory, then repeats
the timed pass, each in a fresh process against the last set-up's cache,
until --seconds have passed; --trace 1 adds one traced pass. The last
line of standard output is one JSON object: "correct", "attempted",
"failed" and "metrics" (the end-to-end metrics of BENCHMARK.json, or with
--trace 1 its per-layer metrics). --workload all runs the three workloads
and prints a table. --record rewrites the workload's expected outputs.
See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = ".bench_build"
EXE = os.path.join(ROOT, BUILD_DIR, "default", "perfbench", "main.exe")
WORKLOADS = ["matrix", "large", "fuzz"]
# Cold set-ups per run; setup_s is their median.
SETUPS = {"matrix": 5, "large": 3, "fuzz": 5}
# After the build, one workload's run must end within this many seconds; a
# child still running then is killed.
RUN_LIMIT_S = 170
DEADLINE = 0.0


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(1)


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    try:
        p = subprocess.run(
            ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
             "./perfbench/main.exe"],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, timeout=850)
    except subprocess.TimeoutExpired:
        fail("build killed after 850 s")
    if p.returncode != 0 or not os.path.exists(EXE):
        sys.stderr.write(p.stdout)
        fail("build failed")


def expected_file(a, workload):
    name = {
        "matrix": "matrix.txt",
        "large": "large-%s-%d.txt" % (a.large_app, a.large_scale),
        "fuzz": "fuzz-%d-%d.txt" % (a.fuzz_seed, a.fuzz_count),
    }[workload]
    return os.path.join(HERE, "expected", name)


def child(a, mode, workload, work_dir, *extra):
    """Run main.exe once; echo its output and return its last-line JSON."""
    cmd = [EXE, mode, "--workload", workload, "--dir", work_dir,
           "--fuzz-seed", str(a.fuzz_seed), "--fuzz-count", str(a.fuzz_count),
           "--large-app", a.large_app, "--large-scale", str(a.large_scale),
           *extra]
    try:
        p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                           stderr=subprocess.PIPE, text=True,
                           timeout=max(1.0, DEADLINE - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail("%s %s: killed at the %d s limit of a run" % (mode, workload, RUN_LIMIT_S))
    sys.stderr.write(p.stderr)
    lines = p.stdout.splitlines()
    for line in lines[:-1]:
        print("  %s %s | %s" % (workload, mode, line))
    if p.returncode != 0 or not lines:
        fail("%s %s exited with %d" % (mode, workload, p.returncode))
    return json.loads(lines[-1])


def run_workload(a, workload, trace):
    """One benchmark run of one workload; returns the raw figures."""
    global DEADLINE
    DEADLINE = time.monotonic() + RUN_LIMIT_S
    exp = expected_file(a, workload)
    if not os.path.exists(exp):
        fail("no expected outputs %s: record them with --record" % exp)
    work = os.path.join(ROOT, BUILD_DIR, "perfbench-work", "%s-%d" % (workload, os.getpid()))
    cache = os.path.join(work, "cache")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        setups = []
        for _ in range(SETUPS[workload]):
            shutil.rmtree(cache, ignore_errors=True)
            setups.append(child(a, "setup", workload, cache, "--trace", str(trace)))
        # Timed passes, each in a fresh process, until a.seconds have passed.
        passes = []
        start = time.monotonic()
        while not passes or time.monotonic() - start < a.seconds:
            passes.append(child(a, "run", workload, cache, "--expected", exp))
        traced = child(a, "run", workload, cache, "--expected", exp, "--trace", "1") if trace else None
    finally:
        shutil.rmtree(work, ignore_errors=True)
    runs = passes + ([traced] if traced else [])
    wall_s = statistics.median(p["wall_s"] for p in passes)
    layers = {}
    if traced:
        layers = dict(traced["layers"])
        for name in setups[0]["layers"]:
            layers[name] = statistics.median(s["layers"][name] for s in setups)
        layers["tracing.overhead_s"] = traced["wall_s"] - wall_s
        print("  %s tracing overhead: %+.3f s (traced %.3f s, untraced median %.3f s)"
              % (workload, traced["wall_s"] - wall_s, traced["wall_s"], wall_s))
    same = len({p["outputs_md5"] for p in runs}) == 1
    if not same:
        print("  %s MISMATCH: passes, traced or not, simulated different outputs" % workload)
    return {
        "correct": same and all(p["correct"] for p in runs),
        "attempted": passes[0]["attempted"],
        "failed": len(set().union(*(p["failed"] for p in runs))),
        "values": {
            "wall_s": wall_s,
            "setup_s": statistics.median(s["setup_s"] for s in setups),
            "sim_cycles_per_s": statistics.median(p["sim_cycles_per_s"] for p in passes),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        },
        "paper_gap_pct": passes[0].get("paper_gap_pct"),
        "layers": layers,
    }


def result_line(r, metrics, values):
    # A per-layer metric whose layer does not run on this workload reads 0.
    return json.dumps({
        "correct": r["correct"],
        "attempted": r["attempted"],
        "failed": r["failed"],
        "metrics": {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
                    for m in metrics},
    })


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=0,
                    help="accepted for a uniform interface; no input depends on it "
                         "(README.md, 'Seeds')")
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    ap.add_argument("--fuzz-seed", type=int, default=0)
    ap.add_argument("--fuzz-count", type=int, default=2000)
    ap.add_argument("--large-app", default="MM")
    ap.add_argument("--large-scale", type=int, default=3)
    ap.add_argument("--record", action="store_true",
                    help="rewrite the workload's expected outputs from one pass")
    a = ap.parse_args()
    sp = spec()
    if a.seconds is None:
        a.seconds = sp["run_seconds"]
    build()

    if a.record:
        if a.workload == "all":
            fail("--record needs one workload")
        global DEADLINE
        DEADLINE = time.monotonic() + RUN_LIMIT_S
        work = os.path.join(ROOT, BUILD_DIR, "perfbench-work", "record-%d" % os.getpid())
        shutil.rmtree(work, ignore_errors=True)
        try:
            child(a, "setup", a.workload, work)
            print(json.dumps(child(a, "record", a.workload, work, "--expected",
                                   expected_file(a, a.workload))))
        finally:
            shutil.rmtree(work, ignore_errors=True)
        return

    metrics = sp["per_layer"] if a.trace else sp["end_to_end"]
    if a.workload != "all":
        r = run_workload(a, a.workload, a.trace)
        print(result_line(r, metrics, r["layers"] if a.trace else r["values"]))
        return

    # One command for the three workloads, each in its own processes.
    results = {w: run_workload(a, w, a.trace) for w in WORKLOADS}
    if a.trace:
        for w, r in results.items():
            print("%s: %s" % (w, result_line(r, metrics, r["layers"])))
    cols = [(m["name"], m["unit"]) for m in sp["end_to_end"]] + [("paper_gap_pct", "%")]
    print("%-8s" % "workload" + "".join("%24s" % ("%s [%s]" % c) for c in cols)
          + "%11s%8s%9s" % ("attempted", "failed", "correct"))
    for w, r in results.items():
        vals = dict(r["values"], paper_gap_pct=r["paper_gap_pct"])
        print("%-8s" % w
              + "".join("%24s" % ("-" if vals[n] is None else "%.6g" % vals[n]) for n, _ in cols)
              + "%11d%8d%9s" % (r["attempted"], r["failed"], r["correct"]))
    print(json.dumps({w: {k: r[k] for k in ("correct", "attempted", "failed", "values", "paper_gap_pct")}
                      for w, r in results.items()}))


if __name__ == "__main__":
    main()
