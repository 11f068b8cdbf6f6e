#!/usr/bin/env python3
"""Toy-size self-test of the benchmark.

Run from anywhere inside a checkout:

    python3 smtbench/selftest.py

For every workload it pins the toy-scale outputs, then checks that:
  * a run prints every metric BENCHMARK.json names, with its unit, and
    passes its own output check (end-to-end metrics with --trace 0,
    per-layer metrics with --trace 1);
  * with a deliberately wrong pinned hash the run still exits 0 and prints
    every metric, but reports every unit failed (failed/attempted = 1);
  * no store or temporary directory is left behind.
Exits non-zero on the first failed check.
"""

import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK_DIR = ".smtbench-work"


def run(workload, trace, pins, *extra):
    cmd = ["bash", "smtbench/run.sh", "--workload", workload, "--seed", "5",
           "--seconds", "1", "--trace", str(trace), "--scale", "toy",
           "--pins", pins, *extra]
    p = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if p.returncode != 0:
        sys.exit(f"FAIL {' '.join(cmd)} exited {p.returncode}:\n{p.stderr}")
    return p.stdout.strip().splitlines()


def result(lines):
    r = json.loads(lines[-1])
    if sorted(r) != ["attempted", "correct", "failed", "metrics"]:
        sys.exit(f"FAIL result keys {sorted(r)}")
    return r


def expect_metrics(r, declared, what):
    got = {k: v["unit"] for k, v in r["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(k for k in set(got) & set(want) if got[k] != want[k])
        sys.exit(f"FAIL {what}: missing {missing}, undeclared {extra}, wrong unit {wrong}")


def main():
    os.chdir(ROOT)
    bench = json.load(open("BENCHMARK.json"))
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    scratch = os.path.join(target, "smtbench-selftest")
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)
    pins = os.path.join(scratch, "pins.txt")
    wrong = os.path.join(scratch, "wrong-pins.txt")

    for w in (x["name"] for x in bench["workloads"]):
        run(w, 0, pins, "--pin-out", pins)
    with open(pins) as f, open(wrong, "w") as g:
        for line in f:
            head, value = line.rsplit(" ", 1)
            flipped = "0" if value.strip()[-1] != "0" else "1"
            g.write(f"{head} {value.strip()[:-1]}{flipped}\n")

    for w in (x["name"] for x in bench["workloads"]):
        for trace, declared in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            r = result(run(w, trace, pins))
            expect_metrics(r, declared, f"{w} --trace {trace}")
            if not r["correct"] or r["failed"] != 0 or r["attempted"] < 1:
                sys.exit(f"FAIL {w} --trace {trace}: output check failed: {r}")
            print(f"ok   {w} --trace {trace}: {len(r['metrics'])} metrics, "
                  f"{r['attempted']} units checked")
        r = result(run(w, 0, wrong))
        expect_metrics(r, bench["end_to_end"], f"{w} with wrong pins")
        if r["correct"] or r["failed"] != r["attempted"]:
            sys.exit(f"FAIL {w} with wrong pins: expected every unit failed: {r}")
        print(f"ok   {w} with wrong pins: failed {r['failed']}/{r['attempted']}")

    if os.path.exists(WORK_DIR):
        sys.exit(f"FAIL {WORK_DIR} left behind: {os.listdir(WORK_DIR)}")
    print(f"ok   no {WORK_DIR} left behind")
    shutil.rmtree(scratch)
    print("self-test passed")


if __name__ == "__main__":
    main()
