#!/usr/bin/env bash
# Builds `twca` and the benchmark from source, then runs one benchmark
# run. Run from the repository root:
#
#   bash perfbench/run.sh --workload wire-large --seed 1 --seconds 10 --trace 0
#
# Build output goes to $CARGO_TARGET_DIR (default `.bench_build`), run
# files to `.bench_work`; the result is the last line of stdout.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p twca-cli >&2
cargo build --release --offline --quiet --locked --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/twca-perfbench" --twca "$CARGO_TARGET_DIR/release/twca" "$@"
