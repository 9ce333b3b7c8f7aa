#!/usr/bin/env bash
# Build the release daemon and the benchmark, then make one benchmark run:
#
#   bash servebench/run.sh --workload serve_mix --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Both builds share one target directory
# (CARGO_TARGET_DIR, default `target`); cargo's output goes to stderr, and
# the last line on stdout is the run's result object.
set -euo pipefail
if [[ ! -f Cargo.toml || ! -d crates/repro ]]; then
    echo "servebench: run from the repository root (no Cargo.toml or crates/repro here)" >&2
    exit 1
fi
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --locked --quiet -p repro --bin repro
cargo build --release --offline --locked --quiet --manifest-path servebench/Cargo.toml
exec "$CARGO_TARGET_DIR/release/servebench" "$@"
