#!/usr/bin/env bash
# Builds the `hdl` server and the benchmark from source, then runs the
# benchmark with the given arguments, e.g.
#   bash perfbench/run.sh --workload whatif --seed 1 --seconds 20 --trace 0
# Run it from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default .bench_build).
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --bin hdl >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" "$@"
