#!/usr/bin/env bash
# Persistent result cache gate (make cache-gate; CI runs exactly this).
#
# A cold tiny-preset run populates the on-disk result cache with one
# results.jsonl line per unit (shard) it computed, then a warm run must
# serve 100% of the jobs from it (-require-cached exits non-zero
# otherwise), append nothing, and render a byte-identical report once
# the per-job timing parenthetical and the jobs-summary line are
# stripped — the same normalisation as scripts/e2e_remote.sh.
set -euo pipefail

cd "$(dirname "$0")/.."

EXPS=fig1b,mc,table1,fig7a,fig7b,defense
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

go build -o "$WORK/dramlocker" ./cmd/dramlocker

# The selected jobs' units, summed from the listing's UNITS column.
UNITS=$("$WORK/dramlocker" -preset tiny -list | awk -v exps=",$EXPS," '
    NR > 1 { split($1, name, "/"); if (index(exps, "," name[2] ",")) n += $2 }
    END { print n }')
lines() { wc -l < "$WORK/rescache/results.jsonl"; }

"$WORK/dramlocker" -preset tiny -exp "$EXPS" -cache-dir "$WORK/rescache" -quiet > "$WORK/cold.txt"
if [ "$(lines)" -ne "$UNITS" ]; then
    echo "FAIL: cold run wrote $(lines) cache lines for $UNITS units (want one per unit)"
    exit 1
fi
"$WORK/dramlocker" -preset tiny -exp "$EXPS" -cache-dir "$WORK/rescache" -quiet -require-cached > "$WORK/warm.txt"
if [ "$(lines)" -ne "$UNITS" ]; then
    echo "FAIL: warm run appended to the cache ($(lines) lines, $UNITS units)"
    exit 1
fi

# Strip only the per-job timing header parenthetical and the
# jobs-summary line; everything else (including parenthesized table
# payloads) must match byte for byte.
norm() { sed -E 's/^(=== .*) \([^)]*\)( ===)$/\1\2/; /^[0-9]+ jobs, /d' "$1"; }
norm "$WORK/cold.txt" > "$WORK/cold.norm"
norm "$WORK/warm.txt" > "$WORK/warm.norm"
if ! diff -u "$WORK/cold.norm" "$WORK/warm.norm"; then
    echo "FAIL: warm cached report diverged from the cold run"
    exit 1
fi
echo "cache-gate: warm run served everything from cache ($(lines) entries, one per unit)"
