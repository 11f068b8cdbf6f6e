#!/usr/bin/env python3
"""Repeat the benchmark over several seeds and report each end-to-end
metric's median and quartile spread against its bound.

    python3 smtbench/spread.py [--runs 10] [--first-seed 1]
                               [--workloads ace-sweep,sfi-service]

Each run uses BENCHMARK.json's run_seconds and a different --seed. The
spread is (Q3 - Q1) / median over the runs, with quartiles as
statistics.quantiles(values, n=4) gives them; a metric is "steady" when
its spread is below a third of its bound (setup_s is exempt). Exits
non-zero if any run fails its output check.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    os.chdir(ROOT)
    bench = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    args = ap.parse_args()
    ok = True
    for w in args.workloads.split(","):
        values = {m["name"]: [] for m in bench["end_to_end"]}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = [*bench["command"], "--workload", w, "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            p = subprocess.run(cmd, capture_output=True, text=True)
            r = json.loads(p.stdout.strip().splitlines()[-1]) if p.returncode == 0 else None
            if r is None or not r["correct"] or r["failed"]:
                print(f"{w} seed {seed}: FAILED\n{p.stderr[-2000:]}")
                ok = False
                continue
            for k in values:
                values[k].append(r["metrics"][k]["value"])
            print(f"{w} seed {seed}: " + " ".join(
                f"{k}={r['metrics'][k]['value']:.5g}" for k in values), flush=True)
        for m in bench["end_to_end"]:
            v = values[m["name"]]
            if len(v) < 2:
                continue
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med
            steady = m["name"] == "setup_s" or spread < m["bound"] / 3
            print(f"  {w:13s} {m['name']:12s} median {med:12.6g} {m['unit']:6s} "
                  f"spread {spread:7.2%} bound {m['bound']:.0%} "
                  f"{'steady' if steady else 'NOT steady'}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
