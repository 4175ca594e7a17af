#!/usr/bin/env bash
# Builds the fused-frame benchmark from the checkout's sources and runs
# it with the given arguments. Run from the repository root:
#
#   bash _fusedbench/run.sh --workload budget-roi --seed 1 --seconds 15 --trace 0
#
# The Go build cache and the binary stay under .bench_build/ in the
# checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -d internal/hub ]]; then
	echo "fusedbench: run from the repository root (go.mod and internal/ not found)" >&2
	exit 2
fi

out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"
# Keep every Go read and write of the build inside the checkout, and
# never reach for the network: the module has no dependencies.
export GOENV=off GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go build -buildvcs=false -o "$out/fusedbench" ./_fusedbench
exec "$out/fusedbench" "$@"
