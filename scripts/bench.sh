#!/usr/bin/env bash
# bench.sh runs the fleet performance gates CI enforces. End-to-end and
# per-layer performance numbers come from perfbench (perfbench/run.sh);
# the Go micro-benchmarks next to the code are developer tools with no
# committed results.
#
# Usage: scripts/bench.sh -fleet
#   FLOOR=1000000  minimum sustained obs/s at 100k streams
#   OVERHEAD=10    max tolerated health-sketch overhead, in percent of
#                  the no-health ingestion rate
#   BENCHTIME=1s   go test -benchtime per run
#
# Pinned to one CPU, it runs BenchmarkFleetHealthOverhead five times —
# two engines at 100k streams, health on and off, fed the same batches
# alternately — and the health snapshot benchmark. It fails unless (a)
# the median ingestion rate with the sketch on, the production default,
# is at least FLOOR observations per second, and (b) the median share of
# the no-health rate the sketch costs is below OVERHEAD percent. Any
# other argument prints this usage and exits 2.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ "$#" -ne 1 ] || [ "$1" != "-fleet" ]; then
    echo "usage: scripts/bench.sh -fleet" >&2
    exit 2
fi

FLOOR="${FLOOR:-1000000}"
OVERHEAD="${OVERHEAD:-10}"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT
go test -c -o "$TMP/fleet.test" ./internal/fleet
# Pin to one CPU with GOMAXPROCS=1, as perfbench/run.sh does, so the
# sketch and the ingestion loop share one core the same way each run.
pin=()
if command -v taskset >/dev/null 2>&1; then
    allowed=$(awk '/^Cpus_allowed_list:/ {print $2}' /proc/self/status)
    cpu=${allowed##*[,-]}
    if [[ "$cpu" =~ ^[0-9]+$ ]]; then
        pin=(taskset -c "$cpu")
        export GOMAXPROCS=1
    fi
fi
# bench PATTERN COUNT runs the matching benchmarks COUNT times.
bench() {
    (cd internal/fleet && "${pin[@]}" "$TMP/fleet.test" -test.run '^$' -test.bench "$1" \
        -test.benchtime "${BENCHTIME:-1s}" -test.count "$2" -test.benchmem) | tee -a "$TMP/out"
}
bench '^BenchmarkFleetHealthOverhead$' 5
bench '^BenchmarkHealthSnapshot$/^streams=100000$' 1
awk -v floor="$FLOOR" -v overhead="$OVERHEAD" -v pinned="${#pin[@]}" '
# metric UNIT returns the value preceding UNIT on the current line.
function metric(unit,   i) {
    for (i = 1; i < NF; i++) if ($(i + 1) == unit) return $i
    return ""
}
function median(a, n,   i, j, t) {
    for (i = 2; i <= n; i++)
        for (j = i; j > 1 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
    return a[int((n + 1) / 2)]
}
/^BenchmarkFleetHealthOverhead/ {
    n++; rate[n] = metric("obs/s"); bare[n] = metric("bare-obs/s"); pct[n] = metric("overhead-%")
}
/^BenchmarkHealthSnapshot\/streams=100000/ { snap = metric("ns/op") }
END {
    if (n == 0) { print "bench.sh: no BenchmarkFleetHealthOverhead result" > "/dev/stderr"; exit 2 }
    printf "medians of %d runs (%s)\n", n, pinned ? "pinned to one CPU, GOMAXPROCS=1" : "unpinned"
    r = median(rate, n)
    printf "fleet ingestion at 100k streams: %.0f obs/s (floor %d)\n", r, floor
    fail = 0
    if (r + 0 < floor + 0) { print "bench.sh: below the fleet ingestion floor" > "/dev/stderr"; fail = 1 }
    p = median(pct, n)
    printf "health sketch overhead: %.1f%% of the no-health rate %.0f obs/s (cap %d%%)\n", p, median(bare, n), overhead
    if (p > overhead + 0) { print "bench.sh: health sketch overhead above the cap" > "/dev/stderr"; fail = 1 }
    if (snap != "") printf "health snapshot at 100k streams: %.2f ms\n", snap / 1e6
    exit fail
}' "$TMP/out"
