#!/usr/bin/env bash
# Campaign-service soak: many concurrent quick-scale jobs through the
# queue, a subset killed mid-write by the deterministic crash hook, then
# SLO assertions — all inside `sim-serve soak` (see DESIGN.md §5k):
#
#   1. p99 submit→result latency under the quick-scale ceiling;
#   2. every crashed submission resumed within the resume ceiling;
#   3. soak store byte-identical to a serial control store;
#   4. gc reclaims only garbage and fsck stays clean afterwards.
#
# The harness exits nonzero on any violation; the JSON report and the
# metrics snapshot land under the soak directory for CI to upload.
#
# Knobs (all forwarded to `sim-serve soak`):
#   SOAK_DIR          work directory (default: fresh mktemp, removed on exit)
#   SOAK_JOBS         queued jobs                      (default 6)
#   SOAK_CRASH_JOBS   jobs crashed mid-write first     (default 2)
#   SOAK_WORKER_PROCS compute streams, parent included (default 2)
#   SOAK_TRIALS       trials per structure per job     (default 4)
#   SOAK_SLO_P99_MS   p99 submit→result ceiling        (default 600000)
#   SOAK_SLO_RESUME_MS max crashed-job resume ceiling  (default 300000)
#
# Usage: scripts/soak.sh
set -euo pipefail
cd "$(dirname "$0")/.."

SERVE=(cargo run --release -q -p sim-serve --)

if [[ -n "${SOAK_DIR:-}" ]]; then
  work="$SOAK_DIR"
  mkdir -p "$work"
else
  work="$(mktemp -d)"
  trap 'rm -rf "$work"' EXIT
fi

echo "==> soak: building sim-serve"
cargo build --release -q -p sim-serve

echo "==> soak: running (dir $work)"
"${SERVE[@]}" soak \
  --dir "$work" \
  --jobs "${SOAK_JOBS:-6}" \
  --crash-jobs "${SOAK_CRASH_JOBS:-2}" \
  --worker-procs "${SOAK_WORKER_PROCS:-2}" \
  --trials "${SOAK_TRIALS:-4}" \
  --slo-p99-ms "${SOAK_SLO_P99_MS:-600000}" \
  --slo-resume-ms "${SOAK_SLO_RESUME_MS:-300000}" \
  --report "$work/soak-report.json"

echo "==> soak: report"
cat "$work/soak-report.json"

echo "==> soak: metrics snapshot"
"${SERVE[@]}" metrics --store "$work/soak"

echo "soak passed."
