#!/usr/bin/env bash
# Build the benchmark (release, offline) and run it.
#
#   bench/run.sh                       every workload, untraced then traced
#   bench/run.sh --smoke               the same at 1/20 size, a few seconds
#   bench/run.sh --calibrate N         N runs per workload; rewrites the bounds in BENCHMARK.json
#   bench/run.sh --aa                  two sets of runs; fails if their medians disagree
#   bench/run.sh --test                the crate's unit tests
#   bench/run.sh --workload W --seed N --seconds S --trace 0|1     one run (what the driver calls)
#
# Results, traces and data directories go under bench/out/ only
# (data directories: override with HIPAC_BENCH_DIR).
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"

if [[ "${1:-}" == "--test" ]]; then
    exec cargo test --release --offline --manifest-path "$here/Cargo.toml"
fi

cargo build --release --offline --manifest-path "$here/Cargo.toml" >&2

# push_fanout holds ~3 descriptors per subscriber.
ulimit -n "$(ulimit -Hn)" 2>/dev/null || true

export HIPAC_BENCH_COMMIT="${HIPAC_BENCH_COMMIT:-$(git -C "$here" rev-parse --short HEAD 2>/dev/null || echo unknown)}"
export HIPAC_BENCH_RUSTC="${HIPAC_BENCH_RUSTC:-$(rustc --version 2>/dev/null || echo unknown)}"

extra=()
if [[ "${1:-}" == "--smoke" && $# -eq 1 ]]; then
    extra=(--seconds 0.5)
fi
exec "$target/release/hipac-perf" --out "$here/out" --benchmark-json "$here/../BENCHMARK.json" "$@" ${extra[@]+"${extra[@]}"}
