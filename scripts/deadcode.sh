#!/usr/bin/env bash
# Prints each function declared under internal/ that no main package links:
# cmd/*, examples/* and the benchmark's dlbench (built, never edited). Each
# binary is linked with inlining off, so a call the compiler would inline
# still keeps its callee, and the binary's symbol table is the set the
# linker kept. (-ldflags=-dumpdep would name the same set, but it leaves out
# methods reached only through an interface.) Generic instances and
# assembly bodies count for their declaration; files the host's build
# constraints exclude are skipped. Exits 0 whatever it finds; `make deadcode`
# fails when the list differs from scripts/deadcode.allow.
set -euo pipefail
cd "$(dirname "$0")/.."
tmp=$(mktemp -d); trap 'rm -rf "$tmp"' EXIT
bin=$tmp/bin; mkdir "$bin"
for p in $(go list -f '{{if eq .Name "main"}}{{.ImportPath}}{{end}}' ./cmd/... ./examples/...); do
	go build -gcflags=all=-l -o "$bin/${p##*/}" "$p"
done
(cd bench && go build -gcflags=all=-l -o "$bin/dlbench" ./cmd/dlbench)
for b in "$bin"/*; do go tool nm "$b"; done |
	sed -nE '/^ *[0-9a-f]+ [Tt] /{s///; s/\[.*\]//; s/\.abi0$//; p;}' | sort -u >"$tmp/linked"
go list -f '{{$p := .ImportPath}}{{range .GoFiles}}{{$p}} {{.}}{{"\n"}}{{end}}' ./internal/... |
	while read -r pkg file; do
		sed -nE "s#^func ([A-Za-z0-9_]+)[[(].*#$pkg.\1#p
			s#^func \([A-Za-z0-9_]* ?\*([A-Za-z0-9_]+)\) ([A-Za-z0-9_]+)\(.*#$pkg.(*\1).\2#p
			s#^func \([A-Za-z0-9_]* ?([A-Za-z0-9_]+)\) ([A-Za-z0-9_]+)\(.*#$pkg.\1.\2#p" \
			"${pkg#repro/}/$file"
	done | grep -v '\.init$' | sort -u | while read -r fn; do
		# A value-receiver method may be linked only as its pointer wrapper.
		ptr=$(sed -E 's#^(.*)\.([A-Za-z0-9_]+)\.([A-Za-z0-9_]+)$#\1.(*\2).\3#' <<<"$fn")
		grep -qxF -e "$fn" -e "$ptr" "$tmp/linked" || echo "$fn"
	done
