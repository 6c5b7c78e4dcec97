#!/bin/sh
# coldpairs: interleaved coldbench pairs, a base revision against the
# working tree.
#
# Builds the coldbench binary twice, from the committed tree of BASE_REV
# (extracted with git archive into a temporary directory) and from the
# working tree, then runs PAIRS pairs of one WORKLOAD for SECONDS host
# seconds each. Pair i uses seed i, and the side that runs first alternates
# (odd pairs run the base first). It prints each end-to-end metric of
# BENCHMARK.json with both sides' median and quartiles and the number of
# pairs the change wins (ties count for neither), and exits non-zero when
# any run fails or reports a failed or incorrect op. Nothing under
# coldbench/ is written: binaries and result records live in the temporary
# directory.
#
# Usage: sh scripts/coldpairs.sh BASE_REV WORKLOAD PAIRS SECONDS
#   e.g. sh scripts/coldpairs.sh HEAD~1 serving 10 6
set -eu
cd "$(dirname "$0")/.."

if [ $# -ne 4 ]; then
    echo "usage: sh scripts/coldpairs.sh BASE_REV WORKLOAD PAIRS SECONDS" >&2
    exit 2
fi
base=$1 workload=$2 pairs=$3 seconds=$4

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=readonly

mkdir "$tmp/base"
git archive "$base" | tar -x -C "$tmp/base"
(cd "$tmp/base/coldbench" && go build -o "$tmp/coldbench-base" .)
(cd coldbench && go build -o "$tmp/coldbench-change" .)

# run SIDE SEED appends the summary line of one run to $tmp/SIDE.jsonl, or
# an empty object when the run fails.
run() {
    if "$tmp/coldbench-$1" -workload "$workload" -seed "$2" -seconds "$seconds" \
        -out "$tmp/out-$1" >"$tmp/stdout" 2>"$tmp/stderr"; then
        tail -n 1 "$tmp/stdout" >>"$tmp/$1.jsonl"
    else
        echo "coldpairs: $1 run, seed $2, exited non-zero:" >&2
        cat "$tmp/stderr" >&2
        echo '{}' >>"$tmp/$1.jsonl"
    fi
}

i=1
while [ "$i" -le "$pairs" ]; do
    if [ $((i % 2)) -eq 1 ]; then
        run base "$i"
        run change "$i"
    else
        run change "$i"
        run base "$i"
    fi
    i=$((i + 1))
done

python3 - "$tmp" "$base" "$workload" "$pairs" "$seconds" <<'EOF'
import json, sys

tmp, base, workload, pairs, seconds = sys.argv[1:]

def load(side):
    with open(f"{tmp}/{side}.jsonl") as f:
        return [json.loads(line) for line in f]

def quartiles(xs):
    # Linear interpolation between closest ranks.
    xs = sorted(xs)
    def q(p):
        pos = p * (len(xs) - 1)
        lo = int(pos)
        hi = min(lo + 1, len(xs) - 1)
        return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)
    return q(0.25), q(0.5), q(0.75)

runs = {"base": load("base"), "change": load("change")}
bad = 0
for side, rs in runs.items():
    for seed, r in enumerate(rs, 1):
        if r.get("correct") is not True or r.get("failed", 1) != 0:
            print(f"coldpairs: {side} seed {seed}: correct={r.get('correct')} failed={r.get('failed')}",
                  file=sys.stderr)
            bad = 1

with open("BENCHMARK.json") as f:
    metrics = json.load(f)["end_to_end"]
print(f"{workload}: {pairs} pairs of {seconds} s, base {base} vs working tree")
print(f"{'metric':<14}{'base q1/median/q3':>30}{'change q1/median/q3':>30}{'wins':>7}")
for m in metrics:
    name, lower = m["name"], m["better"] == "lower"
    # Only pairs where both sides report the metric count.
    both = [(b["metrics"][name]["value"], c["metrics"][name]["value"])
            for b, c in zip(runs["base"], runs["change"])
            if name in b.get("metrics", {}) and name in c.get("metrics", {})]
    if not both:
        print(f"{name:<14}{'(missing)':>30}")
        continue
    wins = sum(1 for b, c in both if (c < b if lower else c > b))
    fmt = lambda xs: "/".join(f"{v:.4g}" for v in quartiles(xs))
    print(f"{name:<14}{fmt([b for b, _ in both]):>30}{fmt([c for _, c in both]):>30}"
          f"{wins:>4}/{len(both)}")
sys.exit(bad)
EOF
