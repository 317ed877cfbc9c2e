#!/usr/bin/env bash
# Build privmech-serve, privmech-router and the benchmark from source, then
# run one benchmark measurement. Run from the root of a privmech checkout:
#
#   bash perfbench/run.sh --workload hot|tail|offline --seed N --seconds S --trace 0|1
#
# Builds go to $CARGO_TARGET_DIR (default .bench_build); everything cargo
# prints goes to standard error, so standard output carries only results.
set -euo pipefail

if [[ ! -f Cargo.toml || ! -d crates/serve || ! -f perfbench/Cargo.toml ]]; then
    echo "perfbench: run from the root of a privmech checkout" >&2
    exit 2
fi
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p privmech-serve --bins 1>&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml 1>&2
exec "$CARGO_TARGET_DIR/release/perfbench" --bin-dir "$CARGO_TARGET_DIR/release" "$@"
