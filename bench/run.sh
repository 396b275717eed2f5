#!/usr/bin/env bash
# Builds dlbench from the checkout it is run in and executes it with the
# given arguments. Run it from the repository root:
#
#   bash bench/run.sh --workload queue-lease --seed 1 --seconds 10 --trace 0
#   bash bench/run.sh compare bench/results/A.json bench/results/B.json
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, temporary files, the binary and the run
# outputs. The module proxy is off, so a build never reaches the network.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/home"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache"
export GOENV=off GOPROXY=off GOFLAGS= GOTOOLCHAIN=local

(cd "$root/bench" && go build -o "$build/dlbench" ./cmd/dlbench)
exec "$build/dlbench" "$@"
