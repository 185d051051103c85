#!/bin/sh
# Micro-benchmark comparison for the simulator hot path: the per-scheme
# engine store loop, the BMT ancestor-path lookup, trace-op generation
# and the geometric sampler under it, the data cache and cache
# hierarchy lookups (synthetic patterns, and replays of profiles' op
# streams through a counter cache and the paper's data hierarchy),
# the NVM write model, PTT and ETT scheduling, and
# the event engine's schedule-and-run loop. With two inputs (a git ref, or two saved outputs) it
# reports the delta through benchstat when that is installed, falling
# back to a plain side-by-side listing otherwise. Nothing here gates a
# build — the numbers are informational, like the registry's
# wall-clock fields.
#
# Usage:
#   scripts/benchcmp.sh                     bench the working tree
#   scripts/benchcmp.sh <git-ref>           bench <git-ref> and the working tree, compare
#   scripts/benchcmp.sh <old.txt> <new.txt> compare two saved bench outputs
#
# Environment:
#   BENCH_COUNT  samples per benchmark (default 10; benchstat wants >=10)
#   BENCH_OUT    directory for saved outputs (default /tmp)
set -eu

COUNT="${BENCH_COUNT:-10}"
OUT="${BENCH_OUT:-/tmp}"

cd "$(dirname "$0")/.."

bench() { # bench <dir> <outfile>
	(
		cd "$1"
		# One iteration of the store loop is a full 500k-instruction
		# run, so -benchtime 1x; the ns-scale lookups use the default.
		go test -run '^$' -bench 'BenchmarkEngineStoreLoop' -benchmem -benchtime 1x -count "$COUNT" ./internal/engine
		go test -run '^$' -bench 'BenchmarkBMTAncestorPath' -benchmem -count "$COUNT" ./internal/bmt
		go test -run '^$' -bench 'BenchmarkTraceGen' -benchmem -count "$COUNT" ./internal/trace
		go test -run '^$' -bench 'BenchmarkGeomSample|BenchmarkNewGeom' -benchmem -count "$COUNT" ./internal/xrand
		go test -run '^$' -bench 'BenchmarkAccess|BenchmarkReplay' -benchmem -count "$COUNT" ./internal/cache ./internal/hier
		go test -run '^$' -bench 'BenchmarkWrite' -benchmem -count "$COUNT" ./internal/nvm
		go test -run '^$' -bench 'BenchmarkPipelinedPersist' -benchmem -count "$COUNT" ./internal/ptt
		go test -run '^$' -bench 'BenchmarkScheduleEpoch' -benchmem -count "$COUNT" ./internal/ett
		go test -run '^$' -bench 'BenchmarkEngineScheduleRun' -benchmem -count "$COUNT" ./internal/sim
	) >"$2"
	echo "wrote $2" >&2
}

compare() { # compare <old> <new>
	if command -v benchstat >/dev/null 2>&1; then
		benchstat "$1" "$2"
	else
		echo "benchstat not installed; raw samples follow."
		echo "(go install golang.org/x/perf/cmd/benchstat@latest for delta tables)"
		echo "--- old: $1 ---"
		grep '^Benchmark' "$1" || true
		echo "--- new: $2 ---"
		grep '^Benchmark' "$2" || true
	fi
}

case $# in
0)
	bench . "$OUT/bench_head.txt"
	grep '^Benchmark' "$OUT/bench_head.txt"
	;;
1)
	WT="$(mktemp -d)"
	trap 'git worktree remove --force "$WT" >/dev/null 2>&1 || true; rm -rf "$WT"' EXIT
	git worktree add --detach "$WT" "$1" >/dev/null
	bench "$WT" "$OUT/bench_old.txt"
	bench . "$OUT/bench_new.txt"
	compare "$OUT/bench_old.txt" "$OUT/bench_new.txt"
	;;
2)
	compare "$1" "$2"
	;;
*)
	echo "usage: scripts/benchcmp.sh [git-ref | old.txt new.txt]" >&2
	exit 2
	;;
esac
