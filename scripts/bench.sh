#!/usr/bin/env bash
# bench.sh runs the repository's benchmark suite and distills the
# output into a machine-readable JSON baseline: one entry per
# benchmark, mapping to its ns/op plus every custom metric the
# benchmark reports (RT@<load>CPUs, loss@<load>CPUs, tailPct, B/op,
# allocs/op, ...). Optimisation PRs regenerate the file and diff it
# against the committed BENCH_baseline.json to prove their claims.
#
# Usage: scripts/bench.sh [output.json]
#        scripts/bench.sh -compare BENCH_baseline.json [output.json]
#        scripts/bench.sh -fleet
#   BENCHTIME=1x   iterations per benchmark (go test -benchtime)
#   BENCH='.'      benchmark filter regexp   (go test -bench)
#   PKGS='...'     packages to benchmark
#   THRESHOLD=20   -compare: max tolerated ns/op regression, in percent
#   FLOOR=1000000  -fleet: minimum sustained obs/s at 100k streams
#   OVERHEAD=10    -fleet: max tolerated health-sketch overhead, in
#                  percent of the no-health ingestion rate
#
# -fleet is the quick CI mode. Pinned to one CPU, it runs
# BenchmarkFleetHealthOverhead five times — two engines at 100k streams,
# health on and off, fed the same batches alternately — and the health
# snapshot benchmark. It fails unless (a) the median ingestion rate with
# the sketch on, the production default, is at least FLOOR observations
# per second, and (b) the median share of the no-health rate the sketch
# costs is below OVERHEAD percent.
#
# In -compare mode the suite runs as usual, results land in the output
# file (default BENCH_current.json so the baseline is never clobbered),
# and a per-benchmark ns/op delta table against the given baseline is
# printed. Any benchmark slower than THRESHOLD percent fails the run
# with exit status 1 — wire it after a perf PR to prove no regression.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ "${1:-}" = "-fleet" ]; then
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
    exit 0
fi

BASELINE=""
if [ "${1:-}" = "-compare" ]; then
    BASELINE="${2:?usage: bench.sh -compare BASELINE.json [output.json]}"
    [ -r "$BASELINE" ] || { echo "bench.sh: baseline $BASELINE not readable" >&2; exit 2; }
    OUT="${3:-BENCH_current.json}"
    if [ "$OUT" = "$BASELINE" ]; then
        echo "bench.sh: refusing to overwrite the baseline $BASELINE" >&2; exit 2
    fi
else
    OUT="${1:-BENCH_baseline.json}"
fi
BENCH="${BENCH:-.}"
BENCHTIME="${BENCHTIME:-1x}"
THRESHOLD="${THRESHOLD:-20}"
PKGS="${PKGS:-. ./internal/core ./internal/des ./internal/fleet ./internal/journal ./internal/metrics ./internal/stats}"

TMP="$(mktemp)"
trap 'rm -f "$TMP"' EXIT

# -run '^$' skips tests; benchmarks print one line each:
#   BenchmarkName-8  iters  1234 ns/op  8.75 RT@9CPUs:SRAA(...)
# shellcheck disable=SC2086
go test -run '^$' -bench "$BENCH" -benchtime "$BENCHTIME" $PKGS | tee "$TMP"

awk -v goversion="$(go env GOVERSION)" '
BEGIN {
    printf "{\n  \"go\": \"%s\",\n  \"benchtime\": \"'"$BENCHTIME"'\",\n  \"benchmarks\": {\n", goversion
    n = 0
}
/^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)      # strip the GOMAXPROCS suffix
    ns = "null"; metrics = ""
    for (i = 3; i < NF; i += 2) {   # (value, unit) pairs after the iteration count
        val = $i; unit = $(i + 1)
        if (unit == "ns/op") {
            ns = val
        } else {
            metrics = metrics sprintf("%s\"%s\": %s", (metrics == "" ? "" : ", "), unit, val)
        }
    }
    if (n++) printf ",\n"
    printf "    \"%s\": {\"ns_per_op\": %s", name, ns
    if (metrics != "") printf ", \"metrics\": {%s}", metrics
    printf "}"
}
END { printf "\n  }\n}\n" }
' "$TMP" > "$OUT"

echo "wrote $OUT ($(grep -c 'ns_per_op' "$OUT") benchmarks)"

[ -n "$BASELINE" ] || exit 0

# extract_ns prints "name ns_per_op" pairs from a bench JSON file,
# sorted by name for join(1).
extract_ns() {
    sed -n 's/^    "\([^"]*\)": {"ns_per_op": \([0-9.]*\).*/\1 \2/p' "$1" | sort
}

BASE_NS="$(mktemp)"; CUR_NS="$(mktemp)"
trap 'rm -f "$TMP" "$BASE_NS" "$CUR_NS"' EXIT
extract_ns "$BASELINE" > "$BASE_NS"
extract_ns "$OUT" > "$CUR_NS"

added=$(join -v2 "$BASE_NS" "$CUR_NS" | awk '{print $1}')
removed=$(join -v1 "$BASE_NS" "$CUR_NS" | awk '{print $1}')
[ -z "$added" ] || printf 'new benchmark (no baseline): %s\n' $added
[ -z "$removed" ] || printf 'benchmark missing from this run: %s\n' $removed

echo
echo "ns/op deltas vs $BASELINE (threshold ${THRESHOLD}%):"
join "$BASE_NS" "$CUR_NS" | awk -v thr="$THRESHOLD" '
BEGIN {
    printf "%-60s %14s %14s %9s\n", "benchmark", "baseline", "current", "delta%"
    worst = 0; fails = 0
}
{
    base = $2; cur = $3
    delta = (base > 0) ? (cur - base) * 100 / base : 0
    flag = ""
    if (delta > thr) { flag = "  REGRESSION"; fails++ }
    if (delta > worst) worst = delta
    printf "%-60s %14.1f %14.1f %+8.1f%%%s\n", $1, base, cur, delta, flag
}
END {
    printf "\nworst delta: %+.1f%% (threshold %s%%)\n", worst, thr
    if (fails > 0) {
        printf "%d benchmark(s) regressed past the threshold\n", fails
        exit 1
    }
}
'
