#!/usr/bin/env bash
# Builds the benchmark (release, offline) and runs it with the given
# arguments; see README.md. Exits non-zero on a build failure, a job that
# fails or does not verify, a span-closure failure, or a composed job that
# differs from the top-level entry point.
#
#   benchmark/run.sh                       all five workloads, both passes
#   benchmark/run.sh --repeat 3            ... three times, with spreads
#   benchmark/run.sh --workload symbol-fast --seed 7 --seconds 10 --trace 0
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --manifest-path "$here/Cargo.toml" >&2

# The record carries the toolchain and the commit it was measured on.
TERASIM_BENCH_RUSTC="$(rustc --version 2>/dev/null || echo unknown)"
TERASIM_BENCH_COMMIT="$(git -C "$here" rev-parse HEAD 2>/dev/null || echo unknown)"
export TERASIM_BENCH_RUSTC TERASIM_BENCH_COMMIT

exec "$CARGO_TARGET_DIR/release/terasim-benchmark" "$@"
