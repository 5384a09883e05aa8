package fleet

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"rejuv/internal/core"
	"rejuv/internal/journal"
	"rejuv/internal/xrand"
)

// shiftTestClasses is testClasses with the workload-shift layer enabled
// on every family.
func shiftTestClasses() []ClassConfig {
	classes := testClasses()
	for i := range classes {
		classes[i].Shift = &core.ShiftConfig{}
	}
	return classes
}

// shiftClassFactory adapts shiftTestClasses to the replay factory
// signature: the reference detectors come out Rebase-wrapped.
func shiftClassFactory(class string) (core.Detector, error) {
	for _, c := range shiftTestClasses() {
		if c.Name == class {
			return c.Detector()
		}
	}
	return nil, fmt.Errorf("unknown class %q", class)
}

// runShiftWorkload drives a non-stationary workload through the engine:
// a steady regime around the configured baseline, an abrupt upward step
// (a workload shift the change-point layer should rebaseline through),
// then a slow ramp on top of the new regime (software aging the wrapped
// detectors should condemn).
func runShiftWorkload(t testing.TB, e *Engine, streams, batchSize int) {
	t.Helper()
	classes := shiftTestClasses()
	for i := 0; i < streams; i++ {
		if err := e.OpenStream(StreamID(i+1), classes[i%len(classes)].Name); err != nil {
			t.Fatalf("open stream %d: %v", i+1, err)
		}
	}
	rng := xrand.NewStream(23, 5)
	batch := make([]StreamObs, batchSize)
	next := 0
	const rounds = 120
	for r := 0; r < rounds; r++ {
		for i := range batch {
			id := StreamID(next%streams + 1)
			next++
			v := 4 + 2*rng.Float64() // steady: mean 5 on baseline (5, 1)
			if r >= 40 {
				v += 8 // abrupt step: z ~ 8, an unmistakable shift
			}
			if r >= 60 {
				v += float64(r-60) * 0.1 // slow ramp: aging on the new regime
			}
			batch[i] = StreamObs{Stream: id, Value: v}
		}
		e.ObserveBatch(batch)
	}
}

// TestFleetShiftMatchesRebaseReference checks the fleet's shift
// layering against Rebase-wrapped reference detectors: a journal written
// across a workload shift and a subsequent aging ramp must replay
// byte-identically through them, rebaselines included.
func TestFleetShiftMatchesRebaseReference(t *testing.T) {
	var buf bytes.Buffer
	jw := journal.NewWriter(&buf, journal.Meta{CreatedBy: "fleet_shift_test"})
	e, err := New(Config{
		Classes: shiftTestClasses(),
		Shards:  4,
		Now:     newFakeClock(50 * time.Millisecond).Now,
		Journal: jw,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	runShiftWorkload(t, e, 12, 48)
	if err := jw.Err(); err != nil {
		t.Fatalf("journal writer: %v", err)
	}
	jr, err := journal.NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	report, err := journal.Replay(jr, shiftClassFactory)
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if !report.Identical() {
		t.Fatalf("shift fleet diverged from Rebase reference: %v", report.Mismatch)
	}
	if report.Rebaselines == 0 {
		t.Fatal("workload shift committed no rebaselines")
	}
	if report.Decisions == 0 || report.Triggers == 0 {
		t.Fatalf("workload exercised too little: %+v", report)
	}
	st := e.Stats()
	if st.Rebaselines != uint64(report.Rebaselines) {
		t.Fatalf("engine counted %d rebaselines, journal holds %d", st.Rebaselines, report.Rebaselines)
	}
	t.Logf("replayed %d streams, %d observations, %d decisions, %d triggers, %d rebaselines",
		report.Streams, report.Observations, report.Decisions, report.Triggers, report.Rebaselines)
}

// TestFleetShiftJournalDeterministicAcrossShards extends the batching
// contract to shift classes: rebaseline records ride the same
// batch-order fan-in, so the journal stays byte-identical for any shard
// count.
func TestFleetShiftJournalDeterministicAcrossShards(t *testing.T) {
	journalFor := func(shards int) []byte {
		var buf bytes.Buffer
		jw := journal.NewWriter(&buf, journal.Meta{CreatedBy: "fleet_shift_test"})
		e, err := New(Config{
			Classes: shiftTestClasses(),
			Shards:  shards,
			Now:     newFakeClock(10 * time.Millisecond).Now,
			Journal: jw,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		runShiftWorkload(t, e, 10, 40)
		return buf.Bytes()
	}
	want := journalFor(1)
	for _, shards := range []int{2, 8} {
		if got := journalFor(shards); !bytes.Equal(got, want) {
			t.Errorf("shift journal with %d shards differs from 1-shard journal (%d vs %d bytes)",
				shards, len(got), len(want))
		}
	}
}

// TestFleetShiftSuppressesFalseTriggersOnPureShift is the behavioural
// claim of the shift layer at fleet scale: across a pure workload shift
// a shift class rebaselines instead of triggering, while the same
// workload through a shift-less class condemns the streams (the vacuity
// guard: the shift is big enough to trigger on).
func TestFleetShiftSuppressesFalseTriggersOnPureShift(t *testing.T) {
	run := func(withShift bool) Stats {
		classes := []ClassConfig{{
			Name: "web", Family: FamilySRAA,
			SampleSize: 2, Buckets: 3, Depth: 2,
			Baseline: core.Baseline{Mean: 5, StdDev: 1},
		}}
		if withShift {
			classes[0].Shift = &core.ShiftConfig{}
		}
		e, err := New(Config{Classes: classes, Shards: 2, Now: newFakeClock(time.Millisecond).Now})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		for i := 1; i <= 4; i++ {
			if err := e.OpenStream(StreamID(i), "web"); err != nil {
				t.Fatal(err)
			}
		}
		batch := make([]StreamObs, 16)
		for r := 0; r < 60; r++ {
			for i := range batch {
				v := 5.0
				if r >= 20 {
					v = 13 // pure step; post-shift regime is flat and healthy
				}
				batch[i] = StreamObs{Stream: StreamID(i%4 + 1), Value: v}
			}
			e.ObserveBatch(batch)
		}
		return e.Stats()
	}
	bare := run(false)
	if bare.Triggers == 0 {
		t.Fatal("vacuity: the step never triggers a shift-less class")
	}
	shifted := run(true)
	if shifted.Triggers != 0 {
		t.Fatalf("shift class raised %d false triggers across a pure workload shift", shifted.Triggers)
	}
	if shifted.Rebaselines == 0 {
		t.Fatal("shift class never rebaselined across the step")
	}
}

// TestObserveBatchDoesNotAllocateWithShift extends the zero-allocation
// pin to shift classes: the per-observation ShiftState step, the
// relearn window and the per-stream target recompute must all stay on
// the allocation-free path.
func TestObserveBatchDoesNotAllocateWithShift(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector, defeating the pin")
	}
	e, err := New(Config{Classes: shiftTestClasses(), Now: newFakeClock(time.Millisecond).Now})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	const streams = 64
	for i := 0; i < streams; i++ {
		if err := e.OpenStream(StreamID(i+1), shiftTestClasses()[i%3].Name); err != nil {
			t.Fatal(err)
		}
	}
	rng := xrand.NewStream(42, 1)
	batch := make([]StreamObs, 256)
	for i := range batch {
		batch[i] = StreamObs{Stream: StreamID(rng.Intn(streams) + 1), Value: 4 + rng.Float64()}
	}
	e.ObserveBatch(batch) // warmup: grow the pooled scratch
	// Step every stream through a shift so relearn windows and
	// rebaseline commits land inside the measured iterations too.
	for i := range batch {
		batch[i].Value += 8
	}
	avg := testing.AllocsPerRun(200, func() {
		e.ObserveBatch(batch)
	})
	if avg != 0 {
		t.Errorf("shift ObserveBatch allocates %.1f times per batch, want 0", avg)
	}
}

// TestShiftIngestConcurrentWithHealthAndStalls is the race gate for the
// shift path: shifting ingestion (rebaselines committing under the
// shard locks) must interleave freely with HealthSnapshot and
// CheckStalls under -race.
func TestShiftIngestConcurrentWithHealthAndStalls(t *testing.T) {
	e, err := New(Config{
		Classes:    shiftTestClasses(),
		Shards:     4,
		Now:        newFakeClock(time.Microsecond).Now,
		MaxSilence: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	const streams = 64
	for i := 1; i <= streams; i++ {
		if err := e.OpenStream(StreamID(i), shiftTestClasses()[i%3].Name); err != nil {
			t.Fatal(err)
		}
	}
	const rounds = 200
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		batch := make([]StreamObs, 128)
		for r := 0; r < rounds; r++ {
			for i := range batch {
				v := 4.0
				if r >= rounds/4 {
					v = 13 // shift mid-run so rebaselines race the readers
				}
				batch[i] = StreamObs{Stream: StreamID(i%streams + 1), Value: v}
			}
			e.ObserveBatch(batch)
		}
	}()
	go func() {
		defer wg.Done()
		for r := 0; r < rounds; r++ {
			e.HealthSnapshot()
		}
	}()
	go func() {
		defer wg.Done()
		for r := 0; r < rounds; r++ {
			e.CheckStalls()
		}
	}()
	wg.Wait()
	if st := e.Stats(); st.Rebaselines == 0 {
		t.Fatalf("concurrent shifting workload committed no rebaselines: %+v", st)
	}
}

// TestFleetShiftBaselineTelemetry checks the per-class shift telemetry
// surfaced to operators: after a workload shift commits rebaselines,
// the health snapshot reports the count and the last committed (µ, σ)
// for every shifted class, and leaves unshifted classes zeroed.
func TestFleetShiftBaselineTelemetry(t *testing.T) {
	e, err := New(Config{
		Classes: shiftTestClasses(),
		Shards:  2,
		Now:     newFakeClock(50 * time.Millisecond).Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	runShiftWorkload(t, e, 12, 48)

	snap := e.HealthSnapshot()
	shifted := 0
	for _, c := range snap.Classes {
		if c.Rebaselined == 0 {
			if c.BaselineMean != 0 || c.BaselineSD != 0 {
				t.Errorf("class %s reports a baseline (%v, %v) without rebaselines",
					c.Name, c.BaselineMean, c.BaselineSD)
			}
			continue
		}
		shifted++
		// The workload steps from mean ~5 to ~13 before the ramp; the
		// committed baseline must reflect the post-shift regime.
		if c.BaselineMean < 10 {
			t.Errorf("class %s committed baseline mean %v, want post-shift regime (> 10)",
				c.Name, c.BaselineMean)
		}
		if !(c.BaselineSD > 0) {
			t.Errorf("class %s committed baseline sd %v, want positive", c.Name, c.BaselineSD)
		}
	}
	if shifted == 0 {
		t.Fatal("no class committed a rebaseline")
	}
}
