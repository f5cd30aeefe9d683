#!/usr/bin/env bash
# The benchmark's one command: builds `stage-serve` (from the repo's
# workspace) and `dstage-bench` (this package) in release mode into one
# target directory, then runs the benchmark with the arguments given.
#
#   bash sysbench/run.sh                      # all five workloads, tracing off
#   bash sysbench/run.sh --traced             # the per-layer pass
#   bash sysbench/run.sh --smoke              # every workload at ~1/20 size
#   bash sysbench/run.sh --workload serve-grid --seed 7 --seconds 12 --trace 0
#   bash sysbench/run.sh compare A.json B.json
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
CARGO_TARGET_DIR="$(realpath -m "${CARGO_TARGET_DIR:-target}")"
export CARGO_TARGET_DIR
# Build chatter goes to stderr: stdout carries only the benchmark's report.
# --locked: building the program under test must never rewrite its lock file.
cargo build --release --offline --locked --quiet --manifest-path Cargo.toml -p dstage-service --bin stage-serve 1>&2
cargo build --release --offline --quiet --manifest-path sysbench/Cargo.toml 1>&2
exec "$CARGO_TARGET_DIR/release/dstage-bench" "$@"
