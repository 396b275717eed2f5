#!/usr/bin/env bash
# bench_diff.sh OLD.json NEW.json — compare two BENCH_*.json artifacts.
#
# The CI bench job records every benchmark as go-test JSON events
# (BENCH_<sha>.json, uploaded per commit). This script lines two such
# artifacts up by benchmark name and prints the ns/op and allocs/op
# deltas, so a PR can be compared against its base commit without a
# dedicated perf rig.
#
# Exit status: timing deltas never fail the script (1-iteration smoke
# runs are noisy by design); it exits non-zero only when a pinned
# zero-alloc benchmark (the train-step and BFA search-iteration
# steady-state gates, candidate ranking, and the ReLU and max-pool
# layers) reports MORE allocs/op than the base artifact —
# at -benchtime=1x the counter includes one-time warm-up allocations,
# so the invariant is "no increase", not an absolute zero.
set -euo pipefail

if [ $# -ne 2 ]; then
    echo "usage: $0 OLD.json NEW.json" >&2
    exit 2
fi
OLD=$1
NEW=$2
[ -f "$OLD" ] || { echo "bench-diff: missing $OLD" >&2; exit 2; }
[ -f "$NEW" ] || { echo "bench-diff: missing $NEW" >&2; exit 2; }

# Benchmarks whose allocs/op must not grow (the zero-alloc pins; see
# bench-kernels and bench-attack in the Makefile).
ZERO_ALLOC_PINS='^Benchmark(TrainStep|BFASearchIter|RankCandidates|ReLU|MaxPool2)'

# extract FILE -> "name ns_per_op allocs_per_op" lines (allocs "-" when
# the benchmark ran without -benchmem). test2json splits one benchmark
# result line across several Output events (the name flushes before the
# measurements), and parallel package runs interleave, so events are
# reassembled per package before parsing.
extract() {
    awk '
    !/"Action":"output"/ { next }
    {
        pkg = "";
        if (match($0, /"Package":"[^"]+"/)) pkg = substr($0, RSTART + 11, RLENGTH - 12);
        if (match($0, /"Output":".*"\}[ \t]*$/)) buf[pkg] = buf[pkg] substr($0, RSTART + 10, RLENGTH - 12);
    }
    END {
        for (p in buf) {
            n = split(buf[p], lines, /\\n/);
            for (i = 1; i <= n; i++) {
                line = lines[i];
                gsub(/\\t/, " ", line);
                if (line !~ /^Benchmark/) continue;
                cnt = split(line, f, / +/);
                ns = ""; allocs = "-";
                for (j = 2; j <= cnt; j++) {
                    if (f[j] == "ns/op")     ns = f[j-1];
                    if (f[j] == "allocs/op") allocs = f[j-1];
                }
                if (ns != "") print f[1], ns, allocs;
            }
        }
    }' "$1" | sort -u
}

TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT
extract "$OLD" > "$TMP/old"
extract "$NEW" > "$TMP/new"
[ -s "$TMP/old" ] || { echo "bench-diff: no benchmark results in $OLD" >&2; exit 2; }
[ -s "$TMP/new" ] || { echo "bench-diff: no benchmark results in $NEW" >&2; exit 2; }

# Join on benchmark name and render the comparison; collect pinned
# allocation regressions on the way.
join "$TMP/old" "$TMP/new" | awk -v pins="$ZERO_ALLOC_PINS" '
    BEGIN {
        printf "%-44s %14s %14s %9s %12s\n", "benchmark", "old ns/op", "new ns/op", "delta", "allocs/op";
        bad = 0;
    }
    {
        name = $1; ons = $2; oalloc = $3; nns = $4; nalloc = $5;
        delta = "n/a";
        if (ons + 0 > 0) delta = sprintf("%+.1f%%", (nns - ons) / ons * 100);
        ainfo = (oalloc == "-" && nalloc == "-") ? "-" : oalloc "->" nalloc;
        flag = "";
        if (name ~ pins && oalloc != "-" && nalloc != "-" && nalloc + 0 > oalloc + 0) {
            flag = "  ALLOC REGRESSION";
            bad++;
        }
        printf "%-44s %14s %14s %9s %12s%s\n", name, ons, nns, delta, ainfo, flag;
    }
    END {
        if (bad > 0) { printf "bench-diff: %d zero-alloc pin(s) regressed\n", bad; exit 1; }
    }'

# Report coverage drift (new/removed benchmarks) without failing on it.
only_old=$(join -v1 "$TMP/old" "$TMP/new" | awk '{print $1}')
only_new=$(join -v2 "$TMP/old" "$TMP/new" | awk '{print $1}')
[ -z "$only_old" ] || echo "bench-diff: only in $OLD:" $only_old
[ -z "$only_new" ] || echo "bench-diff: only in $NEW:" $only_new
echo "bench-diff: OK"
