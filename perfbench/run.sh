#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given
# arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload paper-sweep --seed 3 --seconds 36 --trace 0
#   bash perfbench/run.sh --workload all
#
# The binary, the Go build cache, spans and profiles all stay under
# .bench_build/ in the working directory.
#
# The benchmark runs pinned to one CPU (the last one this process may use)
# with GOMAXPROCS=1, so the mutator and the garbage collector share one
# core and a run does the same work, scheduled the same way, on any
# machine. Without taskset it runs unpinned; the run's provenance line
# records the affinity either way, and the compare mode refuses to
# compare runs whose settings differ.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$(pwd)/.bench_build/perfbench"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=

go build -C "$here" -o "$build/perfbench" .

pin=()
if command -v taskset >/dev/null 2>&1; then
	allowed=$(awk '/^Cpus_allowed_list:/ {print $2}' /proc/self/status)
	cpu=${allowed##*[,-]}
	if [[ "$cpu" =~ ^[0-9]+$ ]]; then
		pin=(taskset -c "$cpu")
		export GOMAXPROCS=1
	fi
fi
exec "${pin[@]}" "$build/perfbench" "$@"
