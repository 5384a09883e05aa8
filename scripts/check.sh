#!/usr/bin/env bash
# check.sh runs the full verification ladder for this repository:
# build, go vet, the rejuvlint static-analysis suite, the test suite
# (shuffled, to surface test-order dependence), race-detector passes
# (including the statistical conformance suite), the seed-pinned
# shift-conformance laws, the scheduler-conformance laws, and a short
# fuzz smoke
# of the existing fuzz targets — including the rejuvlint annotation and
# directive grammar — so they are exercised beyond their seed corpora.
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

echo "== go test -race ./internal/conformance (conformance race pass)"
go test -race -count=1 ./internal/conformance

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
replay_tests='TestReplayDeterminism|TestReplayJournalIdenticalAcrossGOMAXPROCS|TestFleet(Shift)?JournalDeterministicAcrossShards|TestObserveBatchMatchesOneAtATime|TestFleetMatchesReferenceDetectors|TestFleetShiftMatchesRebaseReference|TestKernelMatchesPseudoCode|TestWriterBytesPinned|TestWriterOneWritePerRecord|TestWriterEmittersDoNotAllocate|TestWriterClipsClass|TestReaderReuse|TestReplayAllocsPerRecord|TestClosedEngineIsCollectable|TestStreamPinned|TestTraceLogMatchesJournal|TestLanesMatchHeap|TestJournalPin|TestCmdFiguresQuickGolden|TestRebaseMatchesFreshDetector|TestRebaseRebaselineDoesNotAllocate|TestReaderInPlaceMatchesCopyingPath|TestMonitorSnapshotsInternalsOnce|TestGaugeSetUnchangedBits|TestHistogramCountIsBucketSum|TestReplayStreamLifecycle|TestWriterStepRecordGroup|TestWriterStepMatchesEmitters|TestWriterStepDoesNotAllocate|TestModelSnapshotsInternalsOnce'
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
