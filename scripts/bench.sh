#!/usr/bin/env bash
# Run the perfbench harness and leave BENCH_pipeline.json in the repo root.
#
# Usage: scripts/bench.sh [smoke]
#   (no arg)  full measurement: 50k warm-up + 500k timed cycles, the
#             quick policy sweep at 1/2/4 workers, and the quick-scale
#             SFI campaign timed on the ReplayFromZero and Scalar trial
#             paths and on the lane-batched engine (each fast path is
#             proven record-identical to its oracle before the speedup
#             lands in the JSON)
#   smoke     tiny CI budget: enough to exercise the harness end-to-end
#             (including the SFI timing and the JSON write) in seconds,
#             not minutes
set -euo pipefail
cd "$(dirname "$0")/.."

cores="$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)"
if [[ "$cores" -le 1 ]]; then
  echo "=====================================================================" >&2
  echo "WARNING: this machine reports a single CPU core. Multi-worker sweep" >&2
  echo "and SFI timings will show speedups <= 1.0 — that is single-core" >&2
  echo "scheduling overhead, NOT a parallelism regression. Interpret the" >&2
  echo "JSON's per-worker numbers against its available_parallelism field." >&2
  echo "=====================================================================" >&2
fi

if [[ "${1:-}" == "smoke" ]]; then
  export PERFBENCH_WARMUP_CYCLES=5000
  export PERFBENCH_CYCLES=20000
  export PERFBENCH_SWEEP=0
  export PERFBENCH_SFI_TRIALS=4
  export PERFBENCH_FF_SCALE=quick
fi

cargo run --release -p smt-avf-bench --bin perfbench
