#!/bin/sh
# digests: recompute the pinned experiment digests and fail on any mismatch.
#
# Each non-comment line of scripts/digests.txt holds the sha256 of the
# stdout of one cmd/experiments run, followed by that run's flags: the five
# -quick experiments plus the full-size (18 slots, 800 s) §VII three-core
# and Table 2 runs, the paper's own regime. The script builds the
# experiments binary once, reruns every line and prints ok or FAIL per run.
#
# Usage: sh scripts/digests.sh
set -eu
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
go build -o "$tmp/experiments" ./cmd/experiments

fail=0
while read -r want args; do
    case "$want" in
        '' | '#'*) continue ;;
    esac
    # shellcheck disable=SC2086 # args is a flag list, split on purpose
    "$tmp/experiments" $args </dev/null >"$tmp/out"
    got=$(sha256sum "$tmp/out" | cut -d' ' -f1)
    if [ "$got" = "$want" ]; then
        echo "ok    $args"
    else
        echo "FAIL  $args: sha256 $got, pinned $want" >&2
        fail=1
    fi
done <scripts/digests.txt
exit $fail
