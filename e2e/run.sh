#!/usr/bin/env bash
# Builds the release `smo` binary and the benchmark binary `smo-e2e` from
# source, then runs `smo-e2e` with the given arguments. Run from the
# checkout root, e.g.
#
#   bash e2e/run.sh --workload lp-mid --seed 7 --seconds 25 --trace 0
#   bash e2e/run.sh trace serve-mix --seed 7
#
# Build output goes to $CARGO_TARGET_DIR (default .bench_build); build
# logs go to stderr so the result stays the last line of stdout.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --bin smo >&2
cargo build --release --offline --quiet --manifest-path e2e/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/smo-e2e" "$@"
