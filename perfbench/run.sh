#!/usr/bin/env bash
# Build the `redundancy` daemon and the benchmark from source, then run the
# benchmark with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload serve-rtt --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh --workload all --repeat 10
#
# Both builds share one target directory: $CARGO_TARGET_DIR, else `target`.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --quiet --bin redundancy
cargo build --release --quiet --manifest-path perfbench/Cargo.toml
exec "$CARGO_TARGET_DIR/release/perfbench" \
    --daemon "$CARGO_TARGET_DIR/release/redundancy" \
    --work-dir perfbench/.work "$@"
