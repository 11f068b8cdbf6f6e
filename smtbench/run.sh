#!/usr/bin/env bash
# Build the simulator's `sim-serve` binary and the benchmark from source,
# then run the benchmark with the given arguments. Run from the root of a
# checkout; build output goes to $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p sim-serve >&2
cargo build --release --offline --quiet --manifest-path smtbench/Cargo.toml >&2
# Not exec: the benchmark must not inherit the build's child-process
# resource usage, which would show up in its peak_rss_mb.
"$CARGO_TARGET_DIR/release/smtbench" "$@"
