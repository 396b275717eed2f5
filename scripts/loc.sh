#!/usr/bin/env bash
# Non-test Go line counts under internal/ and cmd/: one line per
# package, their total and the distributed substrate's share.
#
#   bash scripts/loc.sh          # the counts of the working tree
#   bash scripts/loc.sh <rev>    # the counts at <rev>, now, and the delta
#
# <rev> is any git revision; its tree is read with git archive, so
# nothing is checked out. A package that exists on one side only counts
# 0 on the other. `make loc [BASE=<rev>]` runs this script.
set -euo pipefail
export LC_ALL=C

substrate="queue remote resultplane api faultinject backoff wal"

# lines ROOT DIR... prints the non-test Go lines under ROOT/DIR...
lines() {
	local root=$1 d
	shift
	for d in "$@"; do
		if [ -d "$root/$d" ]; then
			find "$root/$d" -name '*.go' ! -name '*_test.go' -exec cat {} +
		fi
	done | wc -l
}

# packages ROOT prints the package directories under ROOT's internal/
# and cmd/.
packages() {
	local d
	for d in "$1"/internal/* "$1"/cmd/*; do
		[ -d "$d" ] && echo "${d#"$1"/}"
	done
}

subdirs=$(for p in $substrate; do echo "internal/$p"; done)

if [ $# -eq 0 ]; then
	for d in $(packages .); do
		printf '%6d %s\n' "$(lines . "$d")" "$d"
	done
	printf '%6d total under internal/ and cmd/\n' "$(lines . internal cmd)"
	# shellcheck disable=SC2086
	printf '%6d substrate (%s)\n' "$(lines . $subdirs)" "$substrate"
	exit 0
fi

base=$(mktemp -d)
trap 'rm -rf "$base"' EXIT
git archive --format=tar "$1" internal cmd | tar -x -C "$base"

# row LABEL DIR... prints the base count, the count now and the delta.
row() {
	local label=$1 was now
	shift
	was=$(lines "$base" "$@")
	now=$(lines . "$@")
	printf '%6d %6d %+6d %s\n' "$was" "$now" "$((now - was))" "$label"
}

printf '%6s %6s %6s  (base: %s)\n' base now delta "$1"
both=$( { packages .; packages "$base"; } | sort -u)
for d in $(grep '^internal/' <<<"$both") $(grep '^cmd/' <<<"$both"); do
	row "$d" "$d"
done
row "total under internal/ and cmd/" internal cmd
# shellcheck disable=SC2086
row "substrate ($substrate)" $subdirs
