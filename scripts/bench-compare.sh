#!/usr/bin/env bash
# Did this get slower? Compares the checkout against commit BASE on one
# benchmark workload, with the protocol of benchmark/README.md
# ("Comparing two commits"):
#
#   scripts/bench-compare.sh BASE WORKLOAD
#
# BASE is built in a temporary git worktree with the checkout's
# benchmark/ copied over it, so both sides run the same benchmark; each
# side builds into its own CARGO_TARGET_DIR. Then 10 parent/child pairs
# run on seeds 1-10 (--seconds 10 --trace 0), alternating which side goes
# first. For every end-to-end metric of BENCHMARK.json it prints the
# child's wins out of 10, both medians and the parent's inter-quartile
# distance.
#
# Exits non-zero if a run fails (a failed or unverified job), if the two
# sides' digests differ on any seed, or if a child median is worse than
# the parent's by more than the metric's bound.
set -euo pipefail

if [ $# -ne 2 ]; then
    echo "usage: $0 BASE WORKLOAD" >&2
    exit 2
fi
base_rev=$1
workload=$2
root="$(git rev-parse --show-toplevel)"
work="$(mktemp -d)"
cleanup() {
    git -C "$root" worktree remove --force "$work/base" 2>/dev/null || true
    rm -rf "$work"
}
trap cleanup EXIT

git -C "$root" worktree add --detach "$work/base" "$base_rev" >&2
rm -rf "$work/base/benchmark"
tar -C "$root" --exclude=benchmark/target --exclude=benchmark/out -cf - benchmark | tar -C "$work/base" -xf -

build() { # SRC TARGET
    CARGO_TARGET_DIR="$2" cargo build --release --offline --manifest-path "$1/benchmark/Cargo.toml" >&2
}
build "$work/base" "$work/target-base"
build "$root" "$work/target-head"
parent="$work/target-base/release/terasim-benchmark"
child="$work/target-head/release/terasim-benchmark"

mkdir -p "$work/runs"
status=0
run() { # SIDE BINARY SEED
    local out="$work/runs/$1-$3"
    if ! "$2" --workload "$workload" --seed "$3" --seconds 10 --trace 0 >"$out.txt"; then
        echo "$1 run on seed $3 failed" >&2
        status=1
    fi
    tail -n 1 "$out.txt" >"$out.json"
}
for seed in $(seq 1 10); do
    if [ $((seed % 2)) -eq 1 ]; then
        run parent "$parent" "$seed"
        run child "$child" "$seed"
    else
        run child "$child" "$seed"
        run parent "$parent" "$seed"
    fi
    a="$(grep '^digest ' "$work/runs/parent-$seed.txt")"
    b="$(grep '^digest ' "$work/runs/child-$seed.txt")"
    if [ "$a" != "$b" ]; then
        echo "digest differs on seed $seed: parent [$a] child [$b]" >&2
        status=1
    fi
done

# One row per end-to-end metric; the quartiles interpolate at positions
# i(n+1)/4 as benchmark/src/stats.rs does.
jq -n -r --slurpfile spec "$root/BENCHMARK.json" \
    --slurpfile parent <(cat "$work"/runs/parent-*.json) \
    --slurpfile child <(cat "$work"/runs/child-*.json) '
  def q($v; $i): ($v | length) as $n | ($i * ($n + 1)) as $pos
    | ([([($pos / 4 | floor), 1] | max), $n - 1] | min) as $j
    | $v[$j - 1] + ($v[$j] - $v[$j - 1]) * ($pos / 4 - $j);
  def values($runs; $m): [$runs[] | .metrics[$m].value];
  def r: . * 10000 | round / 10000 | tostring;
  "metric        child wins  parent median  child median  parent IQR",
  ($spec[0].end_to_end[] as $d
    | values($parent; $d.name) as $p | values($child; $d.name) as $c
    | ([range(0; $p | length)
        | select(if $d.better == "lower" then $c[.] < $p[.] else $c[.] > $p[.] end)] | length) as $wins
    | ($p | sort) as $ps | ($c | sort) as $cs
    | q($ps; 2) as $pm | q($cs; 2) as $cm
    | (if $d.better == "lower" then $cm > $pm * (1 + $d.bound) else $cm < $pm * (1 - $d.bound) end) as $worse
    | "\($d.name | .[0:12] | . + " " * (12 - length))  \($wins)/\($p | length)  \($pm | r)  \($cm | r)  \(q($ps; 3) - q($ps; 1) | r) \($d.unit)\(if $worse then "  WORSE THAN ITS BOUND" else "" end)")
' | tee "$work/table.txt"

if grep -q "WORSE THAN ITS BOUND" "$work/table.txt"; then
    status=1
fi
exit "$status"
