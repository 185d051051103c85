#!/usr/bin/env bash
# Builds the benchmark and cmd/plpserve from this checkout's sources
# into .bench_build/ (Go build cache included, so nothing is written
# outside the checkout) and runs the benchmark with the given
# arguments, from the repository root:
#
#   bash benchmark/run.sh --workload paper-sweep --seed 1 --seconds 25 --trace 0
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

# One build of both binaries: $out/benchmark and $out/plpserve.
go -C "$root/benchmark" build -o "$out/" . plp/cmd/plpserve

exec "$out/benchmark" -root "$root" -bin "$out" "$@"
