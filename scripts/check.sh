#!/usr/bin/env bash
# check.sh runs the full verification ladder for this repository:
# build, go vet, the rejuvlint static-analysis suite, the test suite
# (shuffled, to surface test-order dependence), race-detector passes
# (including the statistical conformance suite), the seed-pinned
# shift-conformance laws, the scheduler-conformance laws, the paper
# gate (the full-fidelity figures, seed 1, regenerated in ~35 s on two
# cores and compared byte for byte with results/ and results_log.txt),
# and a short fuzz smoke of the existing fuzz targets — including the
# rejuvlint annotation and directive grammar — so they are exercised
# beyond their seed corpora.
#
# Usage: scripts/check.sh
#   FUZZTIME=5s scripts/check.sh   # longer fuzz smoke (default 3s/target)
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== go build ./..."
go build ./...

echo "== go vet ./..."
go vet ./...

echo "== rejuvlint ./..."
go run ./cmd/rejuvlint ./...

echo "== go test -shuffle=on ./..."
go test -shuffle=on -count=1 ./...

echo "== go test -race -short ./... (short race pass)"
go test -race -short -count=1 ./...

echo "== go test -race ./internal/metrics . (observability race pass)"
go test -race -count=1 ./internal/metrics .

echo "== go test -race ./internal/conformance ./internal/experiment (conformance and replication-engine race pass)"
go test -race -count=1 ./internal/conformance ./internal/experiment

echo "== figure CSVs on one processor (GOMAXPROCS=1: the sweeps' cell grids fold in the same order on one worker)"
GOMAXPROCS=1 go test -count=1 -run TestCmdFiguresQuickGolden .

echo "== paper gate: full-fidelity figures (seed 1) byte-identical to results/ and results_log.txt"
# The per-figure "(figXX in Ns)" wall-clock suffixes are normalised
# away, as in the CLI goldens.
fig_tmp=$(mktemp -d)
trap 'rm -rf "$fig_tmp"' EXIT
normalise_elapsed() { sed -E 's/in [0-9ms.]+s?\)/in Xs)/'; }
go run ./cmd/figures -out "$fig_tmp/out" >"$fig_tmp/stdout"
diff -rq results "$fig_tmp/out" || {
    echo "paper gate FAILED: regenerated figures differ from results/ (or a file is missing or extra)"; exit 1;
}
diff <(normalise_elapsed <results_log.txt) <(normalise_elapsed <"$fig_tmp/stdout") || {
    echo "paper gate FAILED: figures stdout differs from results_log.txt"; exit 1;
}

echo "== shift-conformance laws (pure shift, aging-through-shift, confusion matrix, faulted rebaselines)"
go test -count=1 -run 'TestShiftLaw|TestShiftFault' -v ./internal/conformance | grep -E '^(--- (PASS|FAIL)|ok|FAIL)' || {
    echo "shift-conformance pass FAILED"; exit 1;
}

echo "== scheduler-conformance laws (capacity budget under faults, starvation latch, rho monotonicity, bounded loss + replay)"
go test -count=1 -run 'TestSchedLaw' -v ./internal/conformance | grep -E '^(--- (PASS|FAIL)|ok|FAIL)' || {
    echo "scheduler-conformance pass FAILED"; exit 1;
}

echo "== flight-recorder replay determinism (all detectors, 3 seeds; fleet journals across shard counts; batched vs one-at-a-time fleet ingestion; fleet vs reference detectors; detector kernel vs pseudo-code oracle; writer byte pins, allocation pins and class clipping; reused-record decode; replay allocation budget; closed engine collectable; RNG stream pin; trace ring vs journal decision records; DES lanes vs heap; model and kernel journal digests; every quick figure CSV; in-place rebaseline vs fresh detector and its allocation pin; in-place vs copying journal decode; one detector snapshot per observation in the monitor and the model; gauge bit-skip and histogram count; replay stream table lifecycle; the Writer.Step record group per hygiene policy, its emitter equivalence and its allocation pin)"
# The -run list names tests by pattern; a pattern that matches nothing
# (a renamed or deleted test) would pass silently, so every alternative
# must run at least one top-level test.
replay_tests='TestReplayDeterminism|TestReplayJournalIdenticalAcrossGOMAXPROCS|TestFleet(Shift)?JournalDeterministicAcrossShards|TestObserveBatchMatchesOneAtATime|TestFleetMatchesReferenceDetectors|TestFleetShiftMatchesRebaseReference|TestKernelMatchesPseudoCode|TestWriterBytesPinned|TestWriterOneWritePerRecord|TestWriterEmittersDoNotAllocate|TestWriterClipsClass|TestReaderReuse|TestReplayAllocsPerRecord|TestClosedEngineIsCollectable|TestStreamPinned|TestTraceLogMatchesJournal|TestLanesMatchHeap|TestJournalPin|TestCmdFiguresQuickGolden|TestRebaseMatchesFreshDetector|TestRebaseRebaselineDoesNotAllocate|TestReaderInPlaceMatchesCopyingPath|TestMonitorSnapshotsInternalsOnce|TestGaugeSetUnchangedBits|TestHistogramCountIsBucketSum|TestReplayStreamLifecycle|TestWriterStepRecordGroup|TestWriterStepMatchesEmitters|TestWriterStepDoesNotAllocate|TestModelSnapshotsInternalsOnce|TestFleetJournalMatchesMonitor|TestFaultStreamRoundTrip|TestCmdRejuvtraceVerifiesPreShiftDetectorJournal'
replay_ok=1
replay_out=$(go test -run "$replay_tests" -count=1 -v . ./internal/journal ./internal/fleet ./internal/core ./internal/xrand ./internal/des ./internal/ecommerce ./internal/metrics 2>&1) || replay_ok=0
grep -E '^(=== RUN|--- (PASS|FAIL)|ok|FAIL)' <<<"$replay_out" || true
if [ "$replay_ok" -ne 1 ]; then
    echo "replay determinism pass FAILED"; exit 1
fi
replay_ran=$(sed -n 's/^=== RUN *\([^/]*\)$/\1/p' <<<"$replay_out")
IFS='|' read -ra replay_alts <<<"$replay_tests"
for alt in "${replay_alts[@]}"; do
    if ! grep -qE "$alt" <<<"$replay_ran"; then
        echo "replay determinism pass FAILED: -run alternative '$alt' ran no test"; exit 1
    fi
done

echo "== fuzz smoke (${FUZZTIME:-3s} per target)"
for pkg in ./internal/core ./internal/stats ./internal/journal ./internal/faults ./internal/lint ./internal/sched ./internal/fleet ./internal/streamindex ./internal/xrand ./internal/des; do
    for target in $(go test -list '^Fuzz' "$pkg" | grep '^Fuzz'); do
        echo "-- fuzz $pkg $target"
        go test -run='^$' -fuzz="^${target}\$" -fuzztime="${FUZZTIME:-3s}" "$pkg"
    done
done

echo "ALL CHECKS PASSED"
