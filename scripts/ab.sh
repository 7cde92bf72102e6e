#!/usr/bin/env bash
# Compare the working tree against a parent revision on one benchmark
# workload, in alternating pairs of runs.
#
#   scripts/ab.sh <parent-rev> <workload> <pairs> <first-seed> [seconds]
#
# Exports <parent-rev> with `git archive` into target/ab/src-<sha> (a
# plain copy: nothing is registered in the repository) and builds its
# bench/ into target/ab/build-parent; builds the working tree's bench/
# into target/ab/build-change. Pair i runs seed <first-seed>+i on both
# sides, parent first in even pairs and the working tree first in odd
# ones (the first run after the runner sat idle can read far faster
# than the rest). Every run shares one HIPAC_BENCH_DIR
# (target/ab/data): two data directories can differ 10 % in raw fsync.
# Each run lasts <seconds> (default 20) untraced.
#
# For each end-to-end metric of BENCHMARK.json it prints the median of
# each side, the parent's interquartile range, the median of the
# per-pair ratios change/parent, and the pairs the change won (better
# in that pair, in the metric's direction). Raw values land in
# target/ab/<workload>-<first-seed>.tsv.
set -euo pipefail
cd "$(dirname "$0")/.."

usage="usage: scripts/ab.sh <parent-rev> <workload> <pairs> <first-seed> [seconds]"
rev=${1:?$usage}
workload=${2:?$usage}
pairs=${3:?$usage}
seed0=${4:?$usage}
seconds=${5:-20}
work=$PWD/target/ab
sha=$(git rev-parse --verify "$rev^{commit}")
src=$work/src-$sha
mkdir -p "$work/data" "$work/out"

if [[ ! -f $src/bench/Cargo.toml ]]; then
    echo "==> exporting $sha into $src" >&2
    rm -rf "$src"
    mkdir -p "$src"
    git archive "$sha" | tar -x -C "$src"
fi
echo "==> building the parent's bench/" >&2
CARGO_TARGET_DIR="$work/build-parent" \
    cargo build --release --offline --manifest-path "$src/bench/Cargo.toml" >&2
echo "==> building the working tree's bench/" >&2
CARGO_TARGET_DIR="$work/build-change" \
    cargo build --release --offline --manifest-path bench/Cargo.toml >&2

tsv=$work/$workload-$seed0.tsv
: > "$tsv"

# run <side> <pair> <seed>: one run; appends `side pair metric value`
# lines for every metric of the run's JSON result.
run() {
    local side=$1 pair=$2 seed=$3 bin json root
    if [[ $side == parent ]]; then
        bin=$work/build-parent/release/hipac-perf
        root=$src
    else
        bin=$work/build-change/release/hipac-perf
        root=$PWD
    fi
    echo "==> pair $pair: $side, seed $seed" >&2
    json=$(HIPAC_BENCH_DIR="$work/data" "$bin" --out "$work/out/$side" \
        --benchmark-json "$root/BENCHMARK.json" --workload "$workload" \
        --seed "$seed" --seconds "$seconds" --trace 0 | tail -1)
    printf '%s\n' "$json" | awk -v side="$side" -v pair="$pair" '
        {
            s = $0
            while (match(s, /"[a-z0-9_.]+": \{"value": [-0-9.eE+]+/)) {
                m = substr(s, RSTART, RLENGTH)
                s = substr(s, RSTART + RLENGTH)
                name = m
                sub(/^"/, "", name)
                sub(/".*/, "", name)
                value = m
                sub(/.*"value": /, "", value)
                print side, pair, name, value
            }
        }' >> "$tsv"
}

for ((i = 0; i < pairs; i++)); do
    seed=$((seed0 + i))
    if ((i % 2 == 0)); then
        run parent "$i" "$seed"
        run change "$i" "$seed"
    else
        run change "$i" "$seed"
        run parent "$i" "$seed"
    fi
done

echo "# $workload: $pairs pairs, seeds $seed0-$((seed0 + pairs - 1)), ${seconds} s each, parent ${sha:0:12} -> working tree"
awk '
    # Sorts a[1..n] ascending (insertion sort: mawk has no asort).
    function sort(a, n,    i, j, v) {
        for (i = 2; i <= n; i++) {
            v = a[i]
            for (j = i - 1; j >= 1 && a[j] > v; j--) a[j + 1] = a[j]
            a[j + 1] = v
        }
    }
    # Quantile q of a[1..n] (sorted), interpolated.
    function quantile(a, n, q,    h, lo) {
        h = (n - 1) * q + 1
        lo = int(h)
        return lo >= n ? a[n] : a[lo] + (h - lo) * (a[lo + 1] - a[lo])
    }
    FNR == NR {
        # BENCHMARK.json: one end-to-end metric per line.
        if (match($0, /"name": "[a-z0-9_]+", "unit": "[^"]*", "better": "(lower|higher)", "bound"/)) {
            line = substr($0, RSTART, RLENGTH)
            split(line, f, "\"")
            order[++metrics] = f[4]
            better[f[4]] = f[12]
        }
        next
    }
    { v[$1, $2, $3] = $4 + 0; if ($2 + 1 > npairs) npairs = $2 + 1 }
    END {
        printf "%-16s %12s %12s %12s %10s %8s\n", "metric", "parent", "change", "parent IQR", "ratio", "won"
        for (m = 1; m <= metrics; m++) {
            name = order[m]
            np = nc = nr = won = 0
            for (p = 0; p < npairs; p++) {
                hp = (("parent", p, name) in v)
                hc = (("change", p, name) in v)
                if (hp) pv[++np] = v["parent", p, name]
                if (hc) cv[++nc] = v["change", p, name]
                if (hp && hc) {
                    a = v["parent", p, name]; b = v["change", p, name]
                    if (a != 0) rv[++nr] = b / a
                    if ((better[name] == "lower" && b < a) || (better[name] == "higher" && b > a)) won++
                }
            }
            if (np == 0 || nc == 0) continue
            sort(pv, np); sort(cv, nc); sort(rv, nr)
            printf "%-16s %12.4g %12.4g %12.4g %10.4f %5d/%-2d\n", name,
                quantile(pv, np, 0.5), quantile(cv, nc, 0.5),
                quantile(pv, np, 0.75) - quantile(pv, np, 0.25),
                nr ? quantile(rv, nr, 0.5) : 0, won, nr
        }
    }' BENCHMARK.json "$tsv"
