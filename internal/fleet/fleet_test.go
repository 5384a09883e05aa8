package fleet

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"rejuv/internal/core"
	"rejuv/internal/journal"
	"rejuv/internal/metrics"
	"rejuv/internal/xrand"
)

// testClasses covers all three detector families.
func testClasses() []ClassConfig {
	base := core.Baseline{Mean: 5, StdDev: 1}
	return []ClassConfig{
		{Name: "web-sraa", Family: FamilySRAA, SampleSize: 2, Buckets: 3, Depth: 2, Baseline: base},
		{Name: "db-saraa", Family: FamilySARAA, SampleSize: 6, Buckets: 5, Depth: 3, Baseline: base},
		{Name: "cache-clta", Family: FamilyCLTA, SampleSize: 4, Quantile: 1.96, Baseline: base},
	}
}

// fakeClock is a deterministic test clock advancing a fixed step per
// reading.
type fakeClock struct {
	mu   sync.Mutex
	now  time.Time
	step time.Duration
}

func newFakeClock(step time.Duration) *fakeClock {
	return &fakeClock{now: time.Unix(1000, 0), step: step}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(c.step)
	return c.now
}

// runWorkload opens streams across all classes, feeds deterministic
// batches with occasional churn, and closes half the streams at the
// end. It exercises every engine feature the journal records.
func runWorkload(t *testing.T, e *Engine, streams, rounds, batchSize int) {
	t.Helper()
	classes := testClasses()
	for i := 0; i < streams; i++ {
		if err := e.OpenStream(StreamID(i+1), classes[i%len(classes)].Name); err != nil {
			t.Fatalf("open stream %d: %v", i+1, err)
		}
	}
	rng := xrand.NewStream(7, 3)
	batch := make([]StreamObs, batchSize)
	next := 0
	for r := 0; r < rounds; r++ {
		for i := range batch {
			id := StreamID(next%streams + 1)
			next++
			// Drift upward over the run so buckets fill and triggers fire.
			v := 4 + 3*rng.Float64() + float64(r)*0.05
			if r == rounds/2 && i == 0 {
				v = math.NaN() // exercise hygiene mid-run
			}
			batch[i] = StreamObs{Stream: id, Value: v}
		}
		e.ObserveBatch(batch)
		if r == rounds/3 {
			// Churn: close and reopen one stream mid-run.
			if err := e.CloseStream(1); err != nil {
				t.Fatal(err)
			}
			if err := e.OpenStream(1, classes[0].Name); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < streams/2; i++ {
		if err := e.CloseStream(StreamID(i + 1)); err != nil {
			t.Fatal(err)
		}
	}
}

// classFactory adapts testClasses to the replay factory signature.
func classFactory(class string) (core.Detector, error) {
	for _, c := range testClasses() {
		if c.Name == class {
			return c.Detector()
		}
	}
	return nil, fmt.Errorf("unknown class %q", class)
}

// TestFleetMatchesReferenceDetectors checks the fleet's shell against
// Monitor-style reference detectors: the journal the engine writes must
// replay byte-identically through the pointer-based core detectors.
// Both sides step the same core kernel, so this covers what surrounds
// it — hygiene, cooldown, shift layering and journaling; the kernel's
// arithmetic is checked independently against the paper's pseudo-code
// by core's TestKernelMatchesPseudoCode.
func TestFleetMatchesReferenceDetectors(t *testing.T) {
	var buf bytes.Buffer
	jw := journal.NewWriter(&buf, journal.Meta{CreatedBy: "fleet_test"})
	e, err := New(Config{
		Classes:  testClasses(),
		Shards:   4,
		Cooldown: 3 * time.Second,
		Now:      newFakeClock(50 * time.Millisecond).Now,
		Journal:  jw,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	runWorkload(t, e, 30, 60, 64)
	if err := jw.Err(); err != nil {
		t.Fatalf("journal writer: %v", err)
	}
	jr, err := journal.NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	report, err := journal.Replay(jr, classFactory)
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if !report.Identical() {
		t.Fatalf("fleet diverged from reference detectors: %v", report.Mismatch)
	}
	if report.Decisions == 0 || report.Triggers == 0 {
		t.Fatalf("workload exercised too little: %+v", report)
	}
	t.Logf("replayed %d streams, %d observations, %d decisions, %d triggers",
		report.Streams, report.Observations, report.Decisions, report.Triggers)
}

// TestFleetJournalDeterministicAcrossShards pins the batching contract:
// because journal records are written in batch order during fan-in, the
// journal is byte-identical for any shard count.
func TestFleetJournalDeterministicAcrossShards(t *testing.T) {
	journalFor := func(shards int) []byte {
		var buf bytes.Buffer
		jw := journal.NewWriter(&buf, journal.Meta{CreatedBy: "fleet_test"})
		e, err := New(Config{
			Classes:  testClasses(),
			Shards:   shards,
			Cooldown: 2 * time.Second,
			Now:      newFakeClock(10 * time.Millisecond).Now,
			Journal:  jw,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		runWorkload(t, e, 25, 40, 48)
		return buf.Bytes()
	}
	want := journalFor(1)
	for _, shards := range []int{2, 8, 32} {
		if got := journalFor(shards); !bytes.Equal(got, want) {
			t.Errorf("journal with %d shards differs from 1-shard journal (%d vs %d bytes)",
				shards, len(got), len(want))
		}
	}
}

func TestOpenCloseChurnRecyclesSlots(t *testing.T) {
	e, err := New(Config{Classes: testClasses(), Shards: 2, Now: newFakeClock(time.Millisecond).Now})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	// Repeatedly open and close the same id set; slot arrays must not grow.
	for round := 0; round < 50; round++ {
		for i := 0; i < 20; i++ {
			if err := e.OpenStream(StreamID(i+1), "web-sraa"); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 20; i++ {
			if err := e.CloseStream(StreamID(i + 1)); err != nil {
				t.Fatal(err)
			}
		}
	}
	slots := 0
	for i := range e.shards {
		slots += len(e.shards[i].ids)
	}
	if slots > 20 {
		t.Errorf("churn grew slot arrays to %d slots for 20 concurrent streams", slots)
	}
	if st := e.Stats(); st.OpenStreams != 0 {
		t.Errorf("OpenStreams = %d after closing everything", st.OpenStreams)
	}
}

// TestOpenCloseChurnKeepsIndexBounded extends the bounded-memory
// guarantee of TestOpenCloseChurnRecyclesSlots to the stream index:
// 10⁵ open/close cycles at a fixed population, each opening an id never
// seen before, leave the table and the slot arrays at the length they
// reached when the population was first opened. Deletion leaves no
// tombstones, so fresh ids cannot crowd the table.
func TestOpenCloseChurnKeepsIndexBounded(t *testing.T) {
	e, err := New(Config{Classes: testClasses(), Shards: 1, Now: newFakeClock(time.Millisecond).Now})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	const population, cycles = 300, 100_000
	for id := StreamID(1); id <= population; id++ {
		if err := e.OpenStream(id, "web-sraa"); err != nil {
			t.Fatal(err)
		}
	}
	s := &e.shards[0]
	tabLen, slots := s.index.TableLen(), len(s.ids)
	for c := 0; c < cycles; c++ {
		oldest, fresh := StreamID(c+1), StreamID(c+1+population)
		if err := e.CloseStream(oldest); err != nil {
			t.Fatal(err)
		}
		if err := e.OpenStream(fresh, "web-sraa"); err != nil {
			t.Fatal(err)
		}
	}
	if s.index.TableLen() != tabLen || len(s.ids) != slots {
		t.Errorf("after %d churn cycles: table %d entries (was %d), %d slots (was %d)",
			cycles, s.index.TableLen(), tabLen, len(s.ids), slots)
	}
	if s.index.Len() != population {
		t.Errorf("index holds %d streams, want %d", s.index.Len(), population)
	}
	if st := e.Stats(); st.OpenStreams != population {
		t.Errorf("OpenStreams = %d, want %d", st.OpenStreams, population)
	}
}

func TestOpenStreamErrors(t *testing.T) {
	e, err := New(Config{Classes: testClasses(), Now: newFakeClock(time.Millisecond).Now})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := e.OpenStream(1, "no-such-class"); err == nil {
		t.Error("open with unknown class succeeded")
	}
	if err := e.OpenStream(0, "web-sraa"); err == nil {
		t.Error("open of the reserved stream 0 succeeded")
	}
	if err := e.OpenStream(1, "web-sraa"); err != nil {
		t.Fatal(err)
	}
	if err := e.OpenStream(1, "web-sraa"); err == nil {
		t.Error("double open succeeded")
	}
	if err := e.CloseStream(2); err == nil {
		t.Error("closing an unopened stream succeeded")
	}
}

func TestUnknownStreamsCountedAndDropped(t *testing.T) {
	e, err := New(Config{Classes: testClasses(), Now: newFakeClock(time.Millisecond).Now})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.ObserveBatch([]StreamObs{{Stream: 99, Value: 1}, {Stream: 100, Value: 2}})
	st := e.Stats()
	if st.UnknownStreams != 2 {
		t.Errorf("UnknownStreams = %d, want 2", st.UnknownStreams)
	}
	if st.Observations != 0 {
		t.Errorf("Observations = %d for unknown-only batch", st.Observations)
	}
}

func TestHygieneRejectionCounted(t *testing.T) {
	e, err := New(Config{Classes: testClasses(), Now: newFakeClock(time.Millisecond).Now})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := e.OpenStream(1, "web-sraa"); err != nil {
		t.Fatal(err)
	}
	e.ObserveBatch([]StreamObs{
		{Stream: 1, Value: math.NaN()},
		{Stream: 1, Value: math.Inf(1)},
		{Stream: 1, Value: 5},
	})
	st := e.Stats()
	if st.Rejected != 2 {
		t.Errorf("Rejected = %d, want 2", st.Rejected)
	}
	if st.Observations != 3 {
		t.Errorf("Observations = %d, want 3", st.Observations)
	}
}

func TestCooldownSuppressesPerStream(t *testing.T) {
	clock := newFakeClock(time.Millisecond)
	e, err := New(Config{
		Classes:  testClasses(),
		Cooldown: time.Hour,
		Now:      clock.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := e.OpenStream(1, "cache-clta"); err != nil {
		t.Fatal(err)
	}
	// CLTA n=4, target ~5.98: every completed block of 100s triggers.
	hot := make([]StreamObs, 8)
	for i := range hot {
		hot[i] = StreamObs{Stream: 1, Value: 100}
	}
	e.ObserveBatch(hot) // two completed blocks: first triggers, second suppressed
	st := e.Stats()
	if st.Triggers != 1 || st.Suppressed != 1 {
		t.Errorf("triggers=%d suppressed=%d, want 1 and 1", st.Triggers, st.Suppressed)
	}
}

func TestTriggerDispatchAndPanicIsolation(t *testing.T) {
	clock := newFakeClock(time.Millisecond)
	var mu sync.Mutex
	var got []Trigger
	delivered := make(chan struct{}, 16)
	e, err := New(Config{
		Classes: testClasses(),
		Now:     clock.Now,
		OnTrigger: func(tr Trigger) {
			mu.Lock()
			got = append(got, tr)
			n := len(got)
			mu.Unlock()
			delivered <- struct{}{}
			if n == 1 {
				panic("first consumer panics")
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.OpenStream(7, "cache-clta"); err != nil {
		t.Fatal(err)
	}
	hot := make([]StreamObs, 4)
	for i := range hot {
		hot[i] = StreamObs{Stream: 7, Value: 100}
	}
	e.ObserveBatch(hot)
	<-delivered
	e.ObserveBatch(hot) // cooldown zero: triggers again
	<-delivered
	e.Close()
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 2 {
		t.Fatalf("delivered %d triggers, want 2", len(got))
	}
	if got[0].Stream != 7 || got[0].Class != "cache-clta" || !got[0].Decision.Triggered {
		t.Errorf("first trigger malformed: %+v", got[0])
	}
	if e.Stats().TriggerPanics != 1 {
		t.Errorf("TriggerPanics = %d, want 1", e.Stats().TriggerPanics)
	}
}

func TestTriggerQueueOverflowDrops(t *testing.T) {
	e, err := New(Config{
		Classes:    testClasses(),
		Now:        newFakeClock(time.Millisecond).Now,
		QueueDepth: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for i := 0; i < 3; i++ {
		if err := e.OpenStream(StreamID(i+1), "cache-clta"); err != nil {
			t.Fatal(err)
		}
	}
	var batch []StreamObs
	for i := 0; i < 3; i++ {
		for k := 0; k < 4; k++ {
			batch = append(batch, StreamObs{Stream: StreamID(i + 1), Value: 100})
		}
	}
	e.ObserveBatch(batch) // three triggers into a depth-1 queue
	st := e.Stats()
	if st.Triggers != 3 {
		t.Errorf("Triggers = %d, want 3", st.Triggers)
	}
	if st.DroppedTriggers != 2 {
		t.Errorf("DroppedTriggers = %d, want 2", st.DroppedTriggers)
	}
	select {
	case tr := <-e.Triggers():
		if !tr.Decision.Triggered {
			t.Error("queued trigger not marked triggered")
		}
	default:
		t.Error("queue empty despite a delivered trigger")
	}
}

func TestCheckStalls(t *testing.T) {
	clock := newFakeClock(0) // manual advance
	e, err := New(Config{
		Classes:    testClasses(),
		MaxSilence: time.Minute,
		Now:        clock.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for i := 0; i < 4; i++ {
		if err := e.OpenStream(StreamID(i+1), "web-sraa"); err != nil {
			t.Fatal(err)
		}
	}
	if n := e.CheckStalls(); n != 0 {
		t.Fatalf("stalled before any silence: %d", n)
	}
	// Feed one stream; leave three silent past the deadline.
	e.ObserveBatch([]StreamObs{{Stream: 1, Value: 5}})
	clock.mu.Lock()
	clock.now = clock.now.Add(2 * time.Minute)
	clock.mu.Unlock()
	e.ObserveBatch([]StreamObs{{Stream: 1, Value: 5}})
	if n := e.CheckStalls(); n != 3 {
		t.Errorf("stalled = %d, want 3", n)
	}
	if st := e.Stats(); st.Stalls != 3 {
		t.Errorf("Stalls = %d, want 3", st.Stalls)
	}
	// The next observation clears a stall; re-check trips nothing new.
	e.ObserveBatch([]StreamObs{{Stream: 2, Value: 5}})
	if n := e.CheckStalls(); n != 2 {
		t.Errorf("stalled after feeding stream 2 = %d, want 2", n)
	}
}

func TestMetricsCardinalityBounded(t *testing.T) {
	reg := metrics.NewRegistry()
	e, err := New(Config{
		Classes:  testClasses(),
		Shards:   4,
		Now:      newFakeClock(time.Millisecond).Now,
		Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	// Open very many streams: the series count must not scale with them.
	for i := 0; i < 500; i++ {
		if err := e.OpenStream(StreamID(i+1), "web-sraa"); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(buf.Bytes(), []byte("stream_id")) {
		t.Error("exposition contains a stream_id label; ids belong in the journal only")
	}
	lines := bytes.Count(buf.Bytes(), []byte("\n"))
	// 4 class-labeled families × 3 classes + 4 shard gauges + 4 engine
	// counters plus HELP/TYPE lines: far under 100 for 500 streams.
	if lines > 100 {
		t.Errorf("exposition has %d lines for 500 streams; label cardinality is leaking", lines)
	}
}

func TestConfigValidation(t *testing.T) {
	now := newFakeClock(time.Millisecond).Now
	cases := map[string]Config{
		"no classes": {Now: now},
		"no clock":   {Classes: testClasses()},
		"negative cooldown": {
			Classes: testClasses(), Now: now, Cooldown: -time.Second,
		},
		"duplicate class": {
			Classes: append(testClasses(), testClasses()[0]), Now: now,
		},
		"bad class": {
			Classes: []ClassConfig{{Name: "x", Family: FamilySRAA}}, Now: now,
		},
		"unknown family": {
			Classes: []ClassConfig{{Name: "x", Family: Family(99), SampleSize: 1}}, Now: now,
		},
	}
	for name, cfg := range cases {
		if _, err := New(cfg); err == nil {
			t.Errorf("%s: New accepted invalid config", name)
		}
	}
}

func TestShardRounding(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{1, 1}, {2, 2}, {3, 4}, {5, 8}, {8, 8}, {100, 128},
	} {
		e, err := New(Config{Classes: testClasses(), Shards: tc.in, Now: newFakeClock(time.Millisecond).Now})
		if err != nil {
			t.Fatal(err)
		}
		if got := len(e.shards); got != tc.want {
			t.Errorf("Shards=%d rounded to %d, want %d", tc.in, got, tc.want)
		}
		e.Close()
	}
}

// TestClosedEngineIsCollectable checks that a closed, dropped engine
// is freed by the next collection. Nothing global may point into the
// engine: a sync.Pool embedded in it, for one, is kept by the runtime
// for two collections after its last Put, and with it the engine's
// shards, stream index and trigger queue.
func TestClosedEngineIsCollectable(t *testing.T) {
	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	runtime.GC()
	runtime.GC()
	before := heap()
	func() {
		e, err := New(Config{Classes: testClasses(), QueueDepth: 1 << 16, Now: newFakeClock(time.Millisecond).Now})
		if err != nil {
			t.Fatal(err)
		}
		classes := testClasses()
		batch := make([]StreamObs, 1000)
		for i := range batch {
			id := StreamID(i + 1)
			if err := e.OpenStream(id, classes[i%len(classes)].Name); err != nil {
				t.Fatal(err)
			}
			batch[i] = StreamObs{Stream: id, Value: 5}
		}
		e.ObserveBatch(batch)
		e.Close()
	}()
	runtime.GC()
	if after := heap(); after > before+1<<20 {
		t.Errorf("heap %d B after one collection, %d B before the engine was built: the closed engine is still reachable", after, before)
	}
}
