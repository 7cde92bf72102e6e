#!/usr/bin/env bash
# Sample where one benchmark workload spends its CPU, for runners that
# have no `perf`.
#
#   scripts/cpu_profile.sh <workload> <seed> <seconds> [top-n]
#       [--callees <fn>[,<fn>...]] [--thread <substring>]
#
# --callees prints, for each named function (a full path or its last
# `::` segments, e.g. `ConditionEvaluator::evaluate`), the share of
# samples under it and how they split over its direct callees (inlined
# frames count as callees; "(self)" is time in the function itself).
# --thread keeps only the samples of threads whose label contains the
# substring (e.g. `hipac-perf`, `hipac-rules-worker`); every table,
# percentages included, is then over those samples alone.
#
# Builds bench/ with frame pointers and debug info into a target
# directory of its own (target/cpu-profile/build; bench/ is not
# touched), runs the workload under a small LD_PRELOAD sampler that
# records, on every SIGPROF, the interrupted RIP, the frame-pointer
# chain above it and the thread's name and id, then symbolizes the
# samples with addr2line and prints self and inclusive top-N functions
# and the split by thread. A thread name that several threads share
# (store_rw's writer and reader are both `hipac-perf`) is printed as
# one `name/tid` row per thread. Samples and the run's JSON land in
# target/cpu-profile/.
#
# Pitfalls:
#  - A sample's address is turned into a file offset through its
#    /proc/self/maps line, and that file offset into the virtual
#    address addr2line wants by the delta (VirtAddr - Offset) of the
#    binary's executable LOAD segment: 0x1000 for this binary, read
#    from `readelf -lW` rather than assumed.
#  - libc (and Rust's prebuilt std) keep no frame pointers, so a sample
#    that lands in libc loses its callers: those samples are reported
#    by thread, not by caller.
#  - A last table names what the libc samples were doing: each is
#    classed by the nearest exported symbol at or below it in libc's
#    dynamic symbol table (allocator, memcpy-like, syscall wrappers,
#    other). libc ships no debug info, so static functions have no
#    names. Two kinds are placed anyway: the string functions libc
#    picked for this CPU, which the sampler names through dlsym, and
#    static code just before an allocator entry point, which is
#    malloc.c's own (`_int_malloc`, `_int_free`). Any other static
#    function counts under the exported symbol just before it: treat
#    that table as approximate.
#  - CPU-time timers fire at the kernel's tick rate, about 100 Hz on a
#    typical VM, whatever interval is asked for, so use runs of 60 s or
#    more for a usable sample count.
set -euo pipefail
cd "$(dirname "$0")/.."

usage="usage: scripts/cpu_profile.sh <workload> <seed> <seconds> [top-n] [--callees f,g] [--thread s]"
workload=${1:?$usage}
seed=${2:?$usage}
seconds=${3:?$usage}
shift 3
top=25
if [[ $# -gt 0 && $1 != --* ]]; then
    top=$1
    shift
fi
callees=""
thread=""
while [[ $# -gt 0 ]]; do
    case $1 in
        --callees) callees=${2:?$usage}; shift 2 ;;
        --thread) thread=${2:?$usage}; shift 2 ;;
        *) echo "$usage" >&2; exit 2 ;;
    esac
done
work=target/cpu-profile
mkdir -p "$work/data"

echo "==> building bench/ with frame pointers into $work/build" >&2
RUSTFLAGS="-C force-frame-pointers=yes -g" CARGO_TARGET_DIR="$work/build" \
    cargo build --release --offline --manifest-path bench/Cargo.toml >&2
bin="$work/build/release/hipac-perf"

cat > "$work/sampler.c" <<'EOF'
/* SIGPROF sampler, loaded with LD_PRELOAD. Each sample is one write():
 * a frame count, the thread name, the thread id and the RIP plus
 * return addresses. */
#define _GNU_SOURCE
#include <dlfcn.h>
#include <errno.h>
#include <fcntl.h>
#include <pthread.h>
#include <signal.h>
#include <stddef.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <sys/prctl.h>
#include <sys/syscall.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#define MAX_FRAMES 64
struct rec { uint32_t n; char name[16]; uint32_t tid; uintptr_t pc[MAX_FRAMES]; };
static int out_fd = -1;
/* The frame chain is only followed inside this thread's own stack. */
static __thread uintptr_t stack_lo, stack_hi;

static void note_stack(void) {
    pthread_attr_t a; void *base; size_t size;
    if (pthread_getattr_np(pthread_self(), &a) != 0) return;
    if (pthread_attr_getstack(&a, &base, &size) == 0) {
        stack_lo = (uintptr_t)base;
        stack_hi = stack_lo + size;
    }
    pthread_attr_destroy(&a);
}

static void on_prof(int sig, siginfo_t *si, void *ctx) {
    (void)sig; (void)si;
    int saved = errno;
    const greg_t *g = ((ucontext_t *)ctx)->uc_mcontext.gregs;
    struct rec r = { .n = 0 };
    prctl(PR_GET_NAME, r.name, 0, 0, 0);
    r.tid = (uint32_t)syscall(SYS_gettid);
    r.pc[r.n++] = (uintptr_t)g[REG_RIP];
    uintptr_t fp = (uintptr_t)g[REG_RBP], sp = (uintptr_t)g[REG_RSP];
    while (r.n < MAX_FRAMES && fp >= sp && fp >= stack_lo && fp + 16 <= stack_hi && !(fp & 7)) {
        uintptr_t next = ((uintptr_t *)fp)[0], ret = ((uintptr_t *)fp)[1];
        if (!ret) break;
        r.pc[r.n++] = ret;
        if (next <= fp) break;
        fp = next;
    }
    ssize_t ignored = write(out_fd, &r, offsetof(struct rec, pc) + r.n * sizeof(uintptr_t));
    (void)ignored;
    errno = saved;
}

struct start { void *(*fn)(void *); void *arg; };
static void *trampoline(void *p) {
    struct start s = *(struct start *)p;
    free(p);
    note_stack();
    return s.fn(s.arg);
}
int pthread_create(pthread_t *t, const pthread_attr_t *a, void *(*fn)(void *), void *arg) {
    static int (*real)(pthread_t *, const pthread_attr_t *, void *(*)(void *), void *);
    if (!real) *(void **)&real = dlsym(RTLD_NEXT, "pthread_create");
    struct start *s = malloc(sizeof *s);
    if (!s) return real(t, a, fn, arg);
    s->fn = fn; s->arg = arg;
    return real(t, a, trampoline, s);
}

__attribute__((constructor)) static void start_sampling(void) {
    const char *path = getenv("CPU_PROFILE_OUT");
    if (!path) return;
    out_fd = open(path, O_WRONLY | O_CREAT | O_TRUNC | O_APPEND, 0644);
    /* The mappings are final once preloading runs: keep a copy. */
    char maps[4096], buf[65536];
    snprintf(maps, sizeof maps, "%s.maps", path);
    int in = open("/proc/self/maps", O_RDONLY), out = open(maps, O_WRONLY | O_CREAT | O_TRUNC, 0644);
    for (ssize_t n; in >= 0 && out >= 0 && (n = read(in, buf, sizeof buf)) > 0;)
        if (write(out, buf, n) != n) break;
    close(in); close(out);
    /* The string functions libc picked at load time (its IFUNCs) are
     * hidden symbols; dlsym resolves the IFUNC, so name them here. */
    snprintf(maps, sizeof maps, "%s.ifunc", path);
    FILE *ifuncs = fopen(maps, "w");
    static const char *const names[] = { "memcpy", "memmove", "memset", "memcmp",
                                         "bcmp", "memchr", "strlen", "strcmp" };
    for (size_t i = 0; ifuncs && i < sizeof names / sizeof *names; i++) {
        void *p = dlsym(RTLD_DEFAULT, names[i]);
        if (p) fprintf(ifuncs, "%s %lx\n", names[i], (unsigned long)(uintptr_t)p);
    }
    if (ifuncs) fclose(ifuncs);
    unsetenv("LD_PRELOAD"); /* child processes are not sampled */
    note_stack();
    struct sigaction sa = { .sa_sigaction = on_prof, .sa_flags = SA_SIGINFO | SA_RESTART };
    sigemptyset(&sa.sa_mask);
    sigaction(SIGPROF, &sa, NULL);
    struct itimerval it = { { 0, 1000 }, { 0, 1000 } };
    setitimer(ITIMER_PROF, &it, NULL);
}
EOF
gcc -O2 -shared -fPIC -ftls-model=initial-exec \
    -o "$work/sampler.so" "$work/sampler.c" -ldl -lpthread

samples="$work/$workload-$seed.samples"
echo "==> running $workload (seed $seed, $seconds s) under the sampler" >&2
CPU_PROFILE_OUT="$samples" LD_PRELOAD="$PWD/$work/sampler.so" HIPAC_BENCH_DIR="$PWD/$work/data" \
    "$bin" --out "$work/out" --benchmark-json BENCHMARK.json --workload "$workload" \
    --seed "$seed" --seconds "$seconds" --trace 0 | tail -1 > "$work/$workload-$seed.json"
cat "$work/$workload-$seed.json"

python3 - "$samples" "$bin" "$top" "$callees" "$thread" <<'EOF'
import bisect, collections, os, re, struct, subprocess, sys

samples_path, binary, top = sys.argv[1], os.path.realpath(sys.argv[2]), int(sys.argv[3])
callee_of = [f for f in sys.argv[4].split(",") if f]
thread_filter = sys.argv[5]
maps = []
for line in open(samples_path + ".maps"):
    parts = line.split()
    if len(parts) >= 6 and "x" in parts[1]:
        lo, hi = (int(x, 16) for x in parts[0].split("-"))
        maps.append((lo, hi, int(parts[2], 16), parts[5]))

data = open(samples_path, "rb").read()
raw, pos = [], 0
while pos + 24 <= len(data):
    n, = struct.unpack_from("<I", data, pos)
    name = data[pos + 4:pos + 20].split(b"\0")[0].decode(errors="replace")
    tid, = struct.unpack_from("<I", data, pos + 20)
    raw.append((name, tid, struct.unpack_from("<%dQ" % n, data, pos + 24)))
    pos += 24 + 8 * n

# A name several threads share gets one "name/tid" row per thread;
# otherwise a trailing number is folded ("hipac-net-worker-N").
tids = collections.defaultdict(set)
for name, tid, _ in raw:
    tids[name].add(tid)
def label(name, tid):
    return "%s/%d" % (name, tid) if len(tids[name]) > 1 else re.sub(r"-\d+$", "-N", name)
stacks = [(label(name, tid), pcs) for name, tid, pcs in raw]
if thread_filter:
    stacks = [(t, pcs) for t, pcs in stacks if thread_filter in t]
    raw = [r for r in raw if thread_filter in label(r[0], r[1])]
    print("\n(threads matching %r only)" % thread_filter)

# The file offset -> virtual address delta: VirtAddr - Offset of the
# binary's executable ("R E") LOAD segment.
delta = next(int(f[2], 16) - int(f[1], 16)
             for line in subprocess.run(["readelf", "-lW", binary], capture_output=True,
                                        text=True, check=True).stdout.splitlines()
             for f in [line.split()] if f[:1] == ["LOAD"] and " R E " in line)

# A frame is the binary's virtual address, or the name of the object it
# fell in: libc and the vDSO are not symbolized here, since without DWARF
# addr2line names their static functions after the nearest exported
# symbol, which misleads (the libc table below does that on purpose,
# and says so). Return addresses point past the call instruction: look
# up the call itself.
def file_offset(pc):
    return next(((path, pc - lo + off) for lo, hi, off, path in maps if lo <= pc < hi), None)

frames, libc_leaves = [], []
for thread, pcs in stacks:
    fr = []
    for i, pc in enumerate(pcs):
        pc = pc if i == 0 else pc - 1
        obj = file_offset(pc)
        if obj is not None and obj[0] == binary:
            fr.append(obj[1] + delta)
        else:
            fr.append("[%s]" % os.path.basename(obj[0] if obj else "unknown"))
            if i == 0 and obj is not None and os.path.basename(obj[0]).startswith("libc.so"):
                libc_leaves.append(obj)
    frames.append((thread, fr))

# Per address, addr2line -a -f -i prints its "0x..." line, then
# function / location pairs, innermost inlined function first.
wanted = sorted({f for _, fr in frames for f in fr if isinstance(f, int)})
out = subprocess.run(["addr2line", "-a", "-f", "-i", "-C", "-e", binary],
                     input="\n".join("%x" % a for a in wanted),
                     capture_output=True, text=True, check=True).stdout.splitlines()
names, cur, expect_name = {}, None, False
for line in out:
    if line.startswith("0x"):
        cur, expect_name = int(line, 16), True
        names[cur] = []
    elif expect_name:
        names[cur].append(re.sub(r"::h[0-9a-f]{16}$", "", line))
        expect_name = False
    else:
        expect_name = True

def chain(frame):
    """Function names for a frame, innermost inlined first."""
    if isinstance(frame, str):
        return [frame]
    return [n for n in names.get(frame, []) if n != "??"] or ["0x%x" % frame]

self_c, incl_c, thread_c = collections.Counter(), collections.Counter(), collections.Counter()
outside = collections.Counter()
thread_self = collections.defaultdict(collections.Counter)
for thread, fr in frames:
    thread_c[thread] += 1
    leaf = chain(fr[0])[0]
    self_c[leaf] += 1
    thread_self[thread][leaf] += 1
    if isinstance(fr[0], str):
        outside[thread, leaf] += 1
    # Inclusive: the binary's own frames, plus the leaf wherever it is.
    incl_c.update({leaf} | {f for fm in fr if isinstance(fm, int) for f in chain(fm)})

total = len(frames) or 1
def table(title, counter, n):
    print("\n== %s ==" % title)
    for key, c in counter.most_common(n):
        print("%6.1f%% %7d  %s" % (100.0 * c / total, c, key if isinstance(key, str) else " / ".join(key)))

print("\n%d samples (about %.0f s of CPU at 100 Hz), %d thread names, %d threads"
      % (len(frames), len(frames) / 100.0, len(tids), len({t for _, t, _ in raw})))
table("by thread (trailing numbers folded; a shared name split as name/tid)", thread_c, top)
table("self, top %d" % top, self_c, top)
table("inclusive, top %d" % top, incl_c, top)
table("samples outside the binary, by thread (their callers are lost: no frame pointers there)", outside, top)
for thread, c in thread_c.most_common():
    if c * 50 >= total:
        table("self on thread %s" % thread, thread_self[thread], 8)

# Callees: in each sample's leaf-first list of function names, the
# outermost frame of the function and the name just below it.
def named(name, want):
    return name == want or name.endswith("::" + want)
for want in callee_of:
    under, below = 0, collections.Counter()
    for _, fr in frames:
        flat = [n for fm in fr for n in chain(fm)]
        hits = [i for i, n in enumerate(flat) if named(n, want)]
        if not hits:
            continue
        under += 1
        i = hits[-1]
        below[flat[i - 1] if i > 0 else "(self)"] += 1
    print("\n== callees of %s: %.1f%% of samples (%d) ==" % (want, 100.0 * under / total, under))
    for key, c in below.most_common(top):
        print("%6.1f%% %7d  %s" % (100.0 * c / total, c, key))

# libc samples by the nearest exported symbol at or below each one.
def libc_class(sym):
    if re.fullmatch(r"(__libc_)?(malloc|free|cfree|realloc|calloc|reallocarray|memalign"
                    r"|posix_memalign|aligned_alloc|valloc|pvalloc)", sym):
        return "allocator"
    if re.match(r"_*(mem|wmem|str|stp|bcopy|bzero)", sym):
        return "memcpy-like"
    if re.fullmatch(r"_*(send|sendto|sendmsg|recv|recvfrom|recvmsg|fdatasync|fsync|syscall"
                    r"|read|write|pread64|pwrite64|epoll_wait|poll|nanosleep|clock_nanosleep)", sym):
        return "syscall wrappers"
    return "other"

if libc_leaves:
    libc_path = libc_leaves[0][0]
    elf = subprocess.run(["readelf", "-lW", "--dyn-syms", libc_path], capture_output=True,
                         text=True, check=True).stdout.splitlines()
    libc_delta = next(int(f[2], 16) - int(f[1], 16) for line in elf
                      for f in [line.split()] if f[:1] == ["LOAD"] and " R E " in line)
    # (start, size, name); an IFUNC's chosen implementation has no size.
    syms = {(int(f[1], 16), int(f[2], 0), f[7].split("@")[0]) for line in elf
            for f in [line.split()] if len(f) >= 8 and f[0].endswith(":")
            and f[3] in ("FUNC", "IFUNC") and f[6] != "UND" and int(f[1], 16) > 0}
    if os.path.exists(samples_path + ".ifunc"):
        for line in open(samples_path + ".ifunc"):
            name, addr = line.split()
            obj = file_offset(int(addr, 16))
            if obj is not None and obj[0] == libc_path:
                syms.add((obj[1] + libc_delta, None, name))
    syms = sorted(syms)
    starts = [a for a, _, _ in syms]
    by_class = collections.Counter()
    by_sym = collections.defaultdict(collections.Counter)
    for _, offset in libc_leaves:
        addr = offset + libc_delta
        i = bisect.bisect_right(starts, addr) - 1
        start, size, sym = syms[i] if i >= 0 else (0, None, "?")
        cls = libc_class(sym)
        if size is not None and addr >= start + size:
            # Static code: malloc.c's sits just before its entry points.
            after = syms[i + 1][2] if i + 1 < len(syms) else "?"
            if libc_class(after) == "allocator":
                sym, cls = "static before " + after, "allocator"
            else:
                sym = "static after " + sym
        by_class[cls] += 1
        by_sym[cls][sym] += 1
    print("\n== libc samples by nearest exported symbol (approximate: see this script's header) ==")
    for cls, c in by_class.most_common():
        named = ", ".join("%s %.1f%%" % (s, 100.0 * n / total) for s, n in by_sym[cls].most_common(4))
        print("%6.1f%% %7d  %s (%s)" % (100.0 * c / total, c, cls, named))
EOF
