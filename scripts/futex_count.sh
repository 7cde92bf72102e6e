#!/usr/bin/env bash
# Count the futex wake syscalls of one benchmark run, and those that
# woke nobody, for runners that have no `strace` or `perf`.
#
#   scripts/futex_count.sh <workload> <seed> <seconds>
#
# Builds bench/ into a target directory of its own
# (target/futex-count/build; bench/ is not touched) and runs the
# workload untraced under a small LD_PRELOAD library that wraps libc's
# variadic `syscall`, through which std's futex calls go. Each
# `FUTEX_WAKE` call is counted, and so is each one that returned 0:
# it woke no waiter, so the syscall bought nothing. Every process of
# the run (the benchmark starts set-up children) appends one line
# `pid wakes futile` to target/futex-count/<workload>-<seed>.counts
# when it exits. The script prints those lines, their sums, and the
# sums per measured transaction. The counts include set-up and
# warm-up, which the denominator (the run's measured transactions)
# does not, so compare runs of one workload and seed only.
set -euo pipefail
cd "$(dirname "$0")/.."

usage="usage: scripts/futex_count.sh <workload> <seed> <seconds>"
workload=${1:?$usage}
seed=${2:?$usage}
seconds=${3:?$usage}
work=target/futex-count
mkdir -p "$work/data"

echo "==> building bench/ into $work/build" >&2
CARGO_TARGET_DIR="$work/build" \
    cargo build --release --offline --manifest-path bench/Cargo.toml >&2
bin="$work/build/release/hipac-perf"

cat > "$work/futex_count.c" <<'EOF'
/* Counts FUTEX_WAKE syscalls made through libc's `syscall`, loaded
 * with LD_PRELOAD. One line per process at exit, appended to the file
 * named by FUTEX_COUNT_OUT. */
#define _GNU_SOURCE
#include <dlfcn.h>
#include <fcntl.h>
#include <linux/futex.h>
#include <stdarg.h>
#include <stdatomic.h>
#include <stdio.h>
#include <stdlib.h>
#include <sys/syscall.h>
#include <unistd.h>

static long (*real_syscall)(long, ...);
static atomic_ulong wakes, futile;

__attribute__((constructor)) static void init(void) {
    *(void **)&real_syscall = dlsym(RTLD_NEXT, "syscall");
}

/* The futex argument list is at most six words; forwarding six is how
 * libc's own wrapper reads them too. */
long syscall(long number, ...) {
    va_list ap;
    long a[6];
    va_start(ap, number);
    for (int i = 0; i < 6; i++) a[i] = va_arg(ap, long);
    va_end(ap);
    long r = real_syscall(number, a[0], a[1], a[2], a[3], a[4], a[5]);
    if (number == SYS_futex && (a[1] & FUTEX_CMD_MASK) == FUTEX_WAKE) {
        atomic_fetch_add_explicit(&wakes, 1, memory_order_relaxed);
        if (r == 0) atomic_fetch_add_explicit(&futile, 1, memory_order_relaxed);
    }
    return r;
}

__attribute__((destructor)) static void report(void) {
    const char *path = getenv("FUTEX_COUNT_OUT");
    if (!path) return;
    int fd = open(path, O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (fd < 0) return;
    char line[96];
    int n = snprintf(line, sizeof line, "%ld %lu %lu\n", (long)getpid(),
                     atomic_load(&wakes), atomic_load(&futile));
    ssize_t ignored = write(fd, line, (size_t)n);
    (void)ignored;
    close(fd);
}
EOF
gcc -O2 -shared -fPIC -o "$work/futex_count.so" "$work/futex_count.c" -ldl

counts="$work/$workload-$seed.counts"
log="$work/$workload-$seed.log"
rm -f "$counts"
echo "==> running $workload (seed $seed, $seconds s) under the futex counter" >&2
FUTEX_COUNT_OUT="$PWD/$counts" LD_PRELOAD="$PWD/$work/futex_count.so" HIPAC_BENCH_DIR="$PWD/$work/data" \
    "$bin" --out "$work/out" --benchmark-json BENCHMARK.json --workload "$workload" \
    --seed "$seed" --seconds "$seconds" --trace 0 > "$log"
tail -1 "$log"

txns=$(sed -n 's/^# measured \([0-9]*\) txns.*/\1/p' "$log")
echo "pid wakes futile"
cat "$counts"
awk -v txns="${txns:-0}" '
    { wakes += $2; futile += $3 }
    END {
        printf "all processes: %d FUTEX_WAKE calls, %d woke nobody (%.1f %%)\n",
            wakes, futile, wakes ? 100 * futile / wakes : 0
        if (txns > 0)
            printf "per measured txn (%d txns): %.2f wakes, %.2f futile\n",
                txns, wakes / txns, futile / txns
    }' "$counts"
