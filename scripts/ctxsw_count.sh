#!/usr/bin/env bash
# Count the context switches of one benchmark run per thread name, for
# runners that have no `perf`.
#
#   scripts/ctxsw_count.sh <workload> <seed> <seconds>
#
# Builds bench/ into a target directory of its own
# (target/ctxsw-count/build; bench/ is not touched), runs the workload
# untraced, and while the run lasts reads every thread's
# `voluntary_ctxt_switches` and `nonvoluntary_ctxt_switches` from
# /proc/<pid>/task/*/status every 100 ms, keeping each thread's last
# reading (the counts only grow). It changes nothing: it reads /proc
# and nothing else. At the end it prints, per thread name, the threads
# seen and their voluntary and involuntary switches, in total and per
# measured transaction. The counts are the benchmark process's own
# (its set-up children are not read) and include its set-up and
# warm-up, which the denominator (the run's measured transactions)
# does not; a thread that exits between two readings loses its last
# 100 ms. Compare runs of one workload and seed only.
set -euo pipefail
cd "$(dirname "$0")/.."

usage="usage: scripts/ctxsw_count.sh <workload> <seed> <seconds>"
workload=${1:?$usage}
seed=${2:?$usage}
seconds=${3:?$usage}
work=$PWD/target/ctxsw-count
mkdir -p "$work/data"

echo "==> building bench/ into $work/build" >&2
CARGO_TARGET_DIR="$work/build" \
    cargo build --release --offline --manifest-path bench/Cargo.toml >&2
bin="$work/build/release/hipac-perf"

log=$work/$workload-$seed.log
samples=$work/$workload-$seed.samples
: > "$samples"
echo "==> running $workload (seed $seed, $seconds s) and reading its threads' switch counts" >&2
HIPAC_BENCH_DIR="$work/data" "$bin" --out "$work/out" --benchmark-json BENCHMARK.json \
    --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 > "$log" &
pid=$!
# One line per thread and reading: `tid name voluntary involuntary`.
while kill -0 "$pid" 2>/dev/null; do
    awk '
        FNR == 1 { n = split(FILENAME, p, "/"); tid = p[n - 1]; name = "?" }
        /^Name:/ { name = $2 }
        /^voluntary_ctxt_switches:/ { vol = $2 }
        /^nonvoluntary_ctxt_switches:/ { print tid, name, vol, $2 }
    ' /proc/"$pid"/task/*/status >> "$samples" 2>/dev/null || true
    sleep 0.1
done
wait "$pid"
tail -1 "$log"

txns=$(sed -n 's/^# measured \([0-9]*\) txns.*/\1/p' "$log")
awk -v txns="${txns:-0}" '
    { name[$1] = $2; vol[$1] = $3; inv[$1] = $4 }
    END {
        for (tid in name) {
            n = name[tid]
            threads[n]++; v[n] += vol[tid]; i[n] += inv[tid]
            tv += vol[tid]; ti += inv[tid]
        }
        printf "%-26s %7s %12s %12s %10s %10s\n", "thread", "threads", "voluntary", "involuntary", "vol/txn", "invol/txn"
        for (n in threads)
            printf "%-26s %7d %12d %12d %10.2f %10.2f\n", n, threads[n], v[n], i[n],
                txns ? v[n] / txns : 0, txns ? i[n] / txns : 0
        printf "%-26s %7s %12d %12d %10.2f %10.2f\n", "all", "", tv, ti,
            txns ? tv / txns : 0, txns ? ti / txns : 0
        printf "measured txns: %d\n", txns
    }' "$samples"
