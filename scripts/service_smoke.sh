#!/usr/bin/env bash
# Campaign-service smoke: the end-to-end crash/resume/fsck contract,
# driven through the real binaries (see DESIGN.md §5h).
#
#   1. Submit a quick campaign into store A (clean reference).
#   2. Submit the same campaign into store B with the deterministic
#      crash hook armed — the writer aborts after its first published
#      chunk, leaving a stale LOCK behind.
#   3. Resubmit into store B; the resume must take over the lock, reuse
#      the published chunk, and finish.
#   4. Stores A and B must be byte-identical (objects AND refs): a kill
#      -9 changed nothing about the final bytes.
#   4a. A --worker-procs 2 submit into store G must be byte-identical to
#      store A too: sharding changes nothing about the bytes. P counts the
#      parent's own compute stream, so it spawns exactly one worker.
#   4b. Crash an in-process submit into store H right after its last
#      chunk is published, then resubmit with --worker-procs 2: the
#      resume only assembles, spawns no worker, and store H is
#      byte-identical to store A.
#   5. validate_avf --store must agree with the plain serial
#      validate_avf on the rendered comparison table, and --resume must
#      reuse the store. The stored run is the scalar oracle (--scalar).
#   6. validate_avf --store at the default (lane-batched) must produce a
#      store byte-identical to the scalar one: the lane-batched engine
#      changes wall clock, never bytes, and the trial path is not part
#      of job identity. Its diagnostics must show the lane classes the
#      trial executor published for the chunks it computed.
#   7. Same byte-identity through sim-serve end to end on a cache-heavy
#      target mix (dl1data,dl1tag,dtlb,itlb) — the strikes that resolve
#      through the consumption-feed watches — submitted scalar
#      (--scalar) and at the default into separate stores.
#   8. Corrupt one object in B; fsck must fail closed.
#
# Usage: scripts/service_smoke.sh
set -euo pipefail
cd "$(dirname "$0")/.."

SERVE=(cargo run --release -q -p sim-serve --)
SUBMIT=(submit --workload 2T-MIX-A --trials 4 --seed 9
  --targets iq,regfile --chunk 3 --workers 1)
VALIDATE=(cargo run --release -q --bin validate_avf --
  --workload 2T-MIX-A --trials 4 --seed 9 --workers 1)

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
A="$work/store-a" B="$work/store-b" C="$work/store-c" D="$work/store-d"
E="$work/store-e" F="$work/store-f" G="$work/store-g" H="$work/store-h"

echo "==> service smoke: clean reference submit"
"${SERVE[@]}" "${SUBMIT[@]}" --store "$A"

echo "==> service smoke: submit with crash hook (abort after 1 chunk)"
if SIM_STORE_CRASH_AFTER_CHUNKS=1 "${SERVE[@]}" "${SUBMIT[@]}" --store "$B"; then
  echo "crash hook did not fire" >&2
  exit 1
fi
[[ -f "$B/LOCK" ]] || { echo "abort should leave LOCK behind" >&2; exit 1; }

echo "==> service smoke: resume after crash"
"${SERVE[@]}" "${SUBMIT[@]}" --store "$B"

echo "==> service smoke: killed+resumed store is byte-identical to clean"
diff -r "$A/objects" "$B/objects"
diff -r "$A/refs" "$B/refs"

echo "==> service smoke: sharded submit is byte-identical to in-process"
"${SERVE[@]}" "${SUBMIT[@]}" --worker-procs 2 --store "$G"
diff -r "$A/objects" "$G/objects"
diff -r "$A/refs" "$G/refs"
grep -q '"serve.worker.spawns": {"type": "counter", "value": 1}' \
    "$G/metrics/submit.json" || {
  echo "a fresh sharded job should spawn 1 worker next to the parent" >&2
  exit 1
}

echo "==> service smoke: sharded resume with every chunk published"
# 8 trials in chunks of 3: the crash hook fires after the third and last.
if SIM_STORE_CRASH_AFTER_CHUNKS=3 "${SERVE[@]}" "${SUBMIT[@]}" --store "$H"; then
  echo "crash hook did not fire" >&2
  exit 1
fi
"${SERVE[@]}" "${SUBMIT[@]}" --worker-procs 2 --store "$H" 2> "$work/resume-h.txt"
grep -q '3 chunks resumed, 0 computed' "$work/resume-h.txt" || {
  cat "$work/resume-h.txt" >&2
  echo "the resume should only assemble" >&2
  exit 1
}
if grep -q '"serve.worker.spawns": {"type": "counter", "value": [1-9]' \
    "$H/metrics/submit.json"; then
  echo "a resume with nothing left to shard spawned a worker" >&2
  exit 1
fi
diff -r "$A/objects" "$H/objects"
diff -r "$A/refs" "$H/refs"

echo "==> service smoke: validate_avf --store matches plain serial run"
"${VALIDATE[@]}" > "$work/serial.txt"
"${VALIDATE[@]}" --scalar --store "$C" > "$work/stored.txt"
# The golden window, every comparison row (structure, SFI estimate, CI,
# ACE AVF, verdict), and the outcome tallies must agree; wall-clock
# metric lines differ by design.
rows='^(golden window|outcomes:|IQ|ROB|LSQ|Reg|FU|DL1|DTLB|ITLB)'
grep -E "$rows" "$work/serial.txt" > "$work/serial-rows.txt"
grep -E "$rows" "$work/stored.txt" > "$work/stored-rows.txt"
diff -u "$work/serial-rows.txt" "$work/stored-rows.txt"
echo "==> service smoke: validate_avf --resume reuses the store"
"${VALIDATE[@]}" --scalar --store "$C" --resume > /dev/null

echo "==> service smoke: lane-batched store is byte-identical to scalar"
"${VALIDATE[@]}" --store "$D" > "$work/batched.txt"
grep '^lane probe classes: ' "$work/batched.txt" || {
  echo "validate_avf --store printed no lane probe classes" >&2
  exit 1
}
diff -r "$C/objects" "$D/objects"
diff -r "$C/refs" "$D/refs"

echo "==> service smoke: cache-heavy lane-batched submit is byte-identical"
MEMSUBMIT=(submit --workload 2T-MIX-A --trials 4 --seed 9
  --targets dl1data,dl1tag,dtlb,itlb --chunk 3 --workers 1)
"${SERVE[@]}" "${MEMSUBMIT[@]}" --scalar --store "$E"
"${SERVE[@]}" "${MEMSUBMIT[@]}" --store "$F"
diff -r "$E/objects" "$F/objects"
diff -r "$E/refs" "$F/refs"

echo "==> service smoke: fsck passes clean, fails closed on corruption"
"${SERVE[@]}" fsck --store "$B"
obj="$(find "$B/objects" -type f | sort | head -1)"
printf 'X' | dd of="$obj" bs=1 seek=12 conv=notrunc status=none
if "${SERVE[@]}" fsck --store "$B"; then
  echo "fsck passed a corrupted store" >&2
  exit 1
fi

echo "service smoke passed."
