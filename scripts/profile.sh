#!/usr/bin/env bash
# Where does a benchmark workload spend its CPU time? Samples one
# untraced run of the repo benchmark and splits the samples by layer, by
# shared object, by innermost (inlined) source file and function, and by
# outermost non-inlined function:
#
#   scripts/profile.sh WORKLOAD [SECONDS]      (default 10 s, seed 1)
#
# The sampler is an LD_PRELOAD library built here with `cc`: a SIGPROF
# handler on ITIMER_PROF (process CPU time; the kernel's tick, e.g.
# 250 Hz, bounds the rate) records each interrupted PC (x86-64 Linux
# only) and, at exit, the process's /proc/self/maps. Samples inside the
# benchmark executable are resolved with `addr2line -i` (release builds
# carry debug info); samples in other objects go to the nearest exported
# symbol before them (`nm -D`), so internal libm/libc functions show as
# that symbol. Needs cc, addr2line, nm and python3. Gates nothing.
set -euo pipefail

if [ $# -lt 1 ] || [ $# -gt 2 ]; then
    echo "usage: $0 WORKLOAD [SECONDS]" >&2
    exit 2
fi
workload=$1
seconds=${2:-10}
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$root/benchmark/target}"
cargo build --release --offline --manifest-path "$root/benchmark/Cargo.toml" >&2
exe="$CARGO_TARGET_DIR/release/terasim-benchmark"

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

cat >"$work/sampler.c" <<'EOF'
#define _GNU_SOURCE
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <sys/time.h>
#include <ucontext.h>
#define MAX (1 << 20)
static unsigned long pcs[MAX];
static unsigned long n;
static void on_prof(int sig, siginfo_t *si, void *uc) {
    (void)sig, (void)si;
    unsigned long i = __atomic_fetch_add(&n, 1, __ATOMIC_RELAXED);
    if (i < MAX) pcs[i] = ((ucontext_t *)uc)->uc_mcontext.gregs[REG_RIP];
}
/* The absolute PCs to $SAMPLER_OUT, the mappings they fall in beside it. */
static void dump(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, 0);
    const char *out = getenv("SAMPLER_OUT");
    char path[4096], line[4096];
    FILE *f = fopen(out, "w");
    if (!f) return;
    unsigned long total = __atomic_load_n(&n, __ATOMIC_RELAXED);
    for (unsigned long i = 0; i < total && i < MAX; i++) fprintf(f, "%#lx\n", pcs[i]);
    fclose(f);
    snprintf(path, sizeof path, "%s.maps", out);
    FILE *in = fopen("/proc/self/maps", "r"), *m = fopen(path, "w");
    while (in && m && fgets(line, sizeof line, in)) fputs(line, m);
    if (in) fclose(in);
    if (m) fclose(m);
}
__attribute__((constructor)) static void start(void) {
    if (!getenv("SAMPLER_OUT")) return;
    struct sigaction sa = {.sa_sigaction = on_prof, .sa_flags = SA_SIGINFO | SA_RESTART};
    sigaction(SIGPROF, &sa, 0);
    struct itimerval it = {{0, 1000}, {0, 1000}};
    setitimer(ITIMER_PROF, &it, 0);
    atexit(dump);
}
EOF
cc -O2 -shared -fPIC -o "$work/sampler.so" "$work/sampler.c"

SAMPLER_OUT="$work/samples" LD_PRELOAD="$work/sampler.so" \
    "$exe" --workload "$workload" --seed 1 --seconds "$seconds" --trace 0 >"$work/run.txt"

python3 - "$work/samples" "$exe" "$root" <<'EOF'
import bisect, collections, os, subprocess, sys

samples, exe, root = sys.argv[1], os.path.realpath(sys.argv[2]), os.path.realpath(sys.argv[3]) + "/"
pcs = [int(l, 16) for l in open(samples)]
if not pcs:
    sys.exit("no samples")

# Each object's load base is the start of its offset-0 mapping.
maps, base = [], {}
for line in open(samples + ".maps"):
    f = line.split()
    lo, hi = (int(x, 16) for x in f[0].split("-"))
    path = f[5] if len(f) > 5 else "[anon]"
    maps.append((lo, hi, path))
    if int(f[2], 16) == 0 and path not in base:
        base[path] = lo
maps.sort()
starts = [m[0] for m in maps]

exported = {}
def nearest_export(path, off):
    if path not in exported:
        out = subprocess.run(["nm", "-D", "--defined-only", path], capture_output=True, text=True).stdout
        tab = sorted((int(f[0], 16), f[2]) for f in map(str.split, out.splitlines()) if len(f) == 3)
        exported[path] = ([a for a, _ in tab], [s for _, s in tab])
    addrs, names = exported[path]
    j = bisect.bisect_right(addrs, off) - 1
    return names[j] if j >= 0 else "?"

objects = collections.Counter()
inside = []  # offsets into the executable
for pc in pcs:
    i = bisect.bisect_right(starts, pc) - 1
    lo, hi, path = maps[i] if i >= 0 else (0, 0, "?")
    if not lo <= pc < hi:
        objects["unmapped"] += 1
    elif os.path.realpath(path) == exe:
        objects["executable"] += 1
        inside.append(pc - base[path])
    elif path.startswith("/"):
        objects[f"{os.path.basename(path)}:{nearest_export(path, pc - base.get(path, lo))}"] += 1
    else:
        objects[path] += 1

# addr2line -i prints, per address, its inline chain innermost first as
# (function, file:line) pairs; the last pair is the non-inlined function.
chains = {}
uniq = sorted(set(inside))
if uniq:
    out = subprocess.run(
        ["addr2line", "-a", "-f", "-C", "-i", "-e", exe],
        input="".join(f"{a:#x}\n" for a in uniq), capture_output=True, text=True, check=True,
    ).stdout.splitlines()
    addr = None
    for line in out:
        if line.startswith("0x"):
            addr = int(line, 16)
            chains[addr] = []
        else:
            chains[addr].append(line)

def repo_file(chain):
    """The innermost frame's file inside the repo, relative to it."""
    for _, loc in chain:
        path = os.path.normpath(loc.rsplit(":", 1)[0])
        if path.startswith(root):
            return path[len(root):]
    return "(std, core, alloc only)"

inner_file, inner_fn, outer_fn = collections.Counter(), collections.Counter(), collections.Counter()
for off in inside:
    pairs = list(zip(chains.get(off, [])[0::2], chains.get(off, [])[1::2])) or [("??", "??:0")]
    inner_file[repo_file(pairs)] += 1
    inner_fn[pairs[0][0]] += 1
    outer_fn[pairs[-1][0]] += 1

# Layers of the fast-engine workloads, by the repo file table's paths;
# `native*` holds both operand quantization and the verifying model.
LAYERS = [
    ("binary16 softfloat", ("crates/softfloat/",)),
    ("uop kernels, register file, timing", ("crates/iss/src/uop.rs", "crates/iss/src/cpu.rs", "crates/iss/src/timing.rs")),
    ("memory (L1 decode, atomics, pool)", ("crates/terapool/src/mem.rs", "crates/terapool/src/topology.rs", "crates/terapool/src/pool.rs")),
    ("group loop and dispatch", ("crates/iss/src/fuse.rs", "crates/iss/src/runner.rs", "crates/terapool/src/fast.rs")),
    ("operand generation (phy, packing)", ("crates/phy/", "crates/kernels/src/data.rs")),
    ("native model (quantize, verify)", ("crates/kernels/src/native",)),
]
layers = collections.Counter()
for path, v in inner_file.items():
    layers[next((name for name, pre in LAYERS if path.startswith(pre)), "other executable code")] += v
for key, v in objects.items():
    if key != "executable":
        layers["outside the executable: " + key.split(":")[0]] += v

total = len(pcs)
def table(title, counter, rows):
    print(f"\n{title}")
    for key, v in counter.most_common(rows):
        print(f"{100 * v / total:6.1f} %  {key[:110]}")

print(f"{total} samples, {100 * objects['executable'] / total:.1f} % in the executable")
table("by layer", layers, 12)
table("by shared object (outside the executable: nearest exported symbol)", objects, 12)
table("by innermost source file in the repo", inner_file, 30)
table("by innermost (inlined) function", inner_fn, 25)
table("by outermost non-inlined function", outer_fn, 25)
EOF
