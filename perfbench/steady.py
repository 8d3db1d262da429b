#!/usr/bin/env python3
"""Measure how steady the benchmark's end-to-end metrics are.

    python3 perfbench/steady.py [--runs 10] [--workloads matrix,large,fuzz]
        [--out perfbench/steadiness.json]

Runs `perfbench/run.py --workload W --seed S --trace 0` once per seed
(1..runs) for each workload, in turn, from the root of the repository.
For every end-to-end metric it records the ten values, their median and
quartiles (statistics.quantiles, n=4), the spread (third minus first
quartile, as a share of the median) and the bound BENCHMARK.json gives
the metric. A spread above a third of its bound is flagged; setup_s
counts only through its median. Writes the record as JSON.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default="matrix,large,fuzz")
    ap.add_argument("--out", default=os.path.join(HERE, "steadiness.json"))
    a = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    record = {"run_seconds": spec["run_seconds"], "runs": a.runs, "workloads": {}}
    for w in a.workloads.split(","):
        values = {}
        for seed in range(1, a.runs + 1):
            p = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", w,
                 "--seed", str(seed), "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True)
            if p.returncode != 0:
                sys.exit("run.py --workload %s --seed %d exited with %d"
                         % (w, seed, p.returncode))
            res = json.loads(p.stdout.splitlines()[-1])
            if not res["correct"]:
                sys.exit("run.py --workload %s --seed %d: outputs not correct" % (w, seed))
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print("%s seed %d: %s" % (w, seed, json.dumps(
                {k: round(v["value"], 4) for k, v in res["metrics"].items()})), flush=True)
        rows = {}
        for name, vs in values.items():
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med
            rows[name] = {
                "values": vs, "median": med, "q1": q1, "q3": q3,
                "spread": spread, "bound": bounds[name],
                "within_third": spread <= bounds[name] / 3,
            }
            print("%s %-18s median %-12.6g q1 %-12.6g q3 %-12.6g spread %.4f bound %.2f%s"
                  % (w, name, med, q1, q3, spread, bounds[name],
                     "" if spread <= bounds[name] / 3 else "  ABOVE A THIRD"), flush=True)
        record["workloads"][w] = rows
    with open(a.out, "w") as f:
        json.dump(record, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()
