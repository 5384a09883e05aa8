package fleet

import (
	"bytes"
	"math"
	"reflect"
	"testing"
	"time"

	"rejuv/internal/journal"
)

// manualClock is a test clock that moves only when the test advances
// it, so a batch and the same items fed one call at a time read the
// same time.
type manualClock struct{ now time.Time }

func (c *manualClock) Now() time.Time { return c.now }

// batchRun is everything a scripted run exposes about its items: the
// journal (one observe record per admitted item and one decision per
// evaluated item, in item order), Stats after every batch, and every
// delivered trigger.
type batchRun struct {
	journal  []byte
	stats    []Stats
	triggers []Trigger
}

// playBatchScript drives an engine with the given shard count through a
// fixed lifecycle-and-ingestion script, handing each batch to feed.
// Within one batch: repeats of one stream, an id never opened, a stream
// closed since the previous batch, a non-finite value. Between batches:
// one stream closed and another closed and reopened under a new class.
func playBatchScript(t *testing.T, shards int, feed func(*Engine, []StreamObs)) batchRun {
	t.Helper()
	var buf bytes.Buffer
	jw := journal.NewWriter(&buf, journal.Meta{CreatedBy: "fleet_test"})
	clk := &manualClock{now: time.Unix(1000, 0)}
	e, err := New(Config{
		Classes:    testClasses(),
		Shards:     shards,
		Cooldown:   3 * time.Second,
		Now:        clk.Now,
		Journal:    jw,
		QueueDepth: 256,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	var run batchRun
	do := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	classes := testClasses()
	for id := StreamID(1); id <= 6; id++ {
		do(e.OpenStream(id, classes[(id-1)%3].Name))
	}
	// Streams 1 and 4 are SRAA (n=2), 2 and 5 SARAA (n=6), 3 and 6 CLTA
	// (n=4); 50 is far above every target, 5 sits at the mean.
	batches := [][]StreamObs{
		{
			{1, 50}, {99, 50}, {1, 50}, {3, 50}, {4, 5}, {1, 50}, {3, 50},
			{2, 50}, {1, 50}, {3, 50}, {5, 5}, {1, 50}, {3, 50}, {1, 50},
			{4, 5}, {2, 50}, {1, 50}, {3, 50}, {6, 5}, {1, 50}, {3, 50},
			{1, 50}, {3, 50}, {2, 50}, {3, 50}, {1, 50}, {1, 50}, {1, 50},
		},
		{
			{1, 50}, {4, 5}, {2, 50}, {1, 50}, {99, 1}, {3, math.NaN()},
			{2, 50}, {1, 50}, {4, 5}, {3, 50}, {2, 50}, {1, 50}, {3, 50},
			{2, 50}, {6, 5}, {1, 50}, {3, 50}, {1, 50}, {5, 5}, {1, 50},
		},
		{
			{3, 50}, {1, 50}, {3, 50}, {1, 50}, {2, 50}, {3, 50}, {4, 5},
			{1, 50}, {3, 50}, {1, 50}, {2, 50}, {1, 50}, {6, 5}, {1, 50},
		},
	}
	for bi, batch := range batches {
		switch bi {
		case 1:
			do(e.CloseStream(4))
			do(e.CloseStream(2))
			do(e.OpenStream(2, "cache-clta"))
		case 2:
			clk.now = clk.now.Add(5 * time.Second) // past the cooldown
			do(e.CloseStream(1))
			do(e.OpenStream(1, "web-sraa"))
		}
		feed(e, batch)
		run.stats = append(run.stats, e.Stats())
		for len(e.Triggers()) > 0 {
			run.triggers = append(run.triggers, <-e.Triggers())
		}
		clk.now = clk.now.Add(time.Second)
	}
	if err := jw.Err(); err != nil {
		t.Fatalf("journal writer: %v", err)
	}
	run.journal = buf.Bytes()
	return run
}

// TestObserveBatchMatchesOneAtATime pins the batch semantics of the
// two-pass drain: resolving a shard's slots before stepping its
// detectors must give every item the outcome it would get alone. The
// same script fed as whole batches and as one-item batches must yield
// identical journal bytes, Stats after every batch and triggers, for
// any shard count.
func TestObserveBatchMatchesOneAtATime(t *testing.T) {
	whole := func(e *Engine, b []StreamObs) { e.ObserveBatch(b) }
	single := func(e *Engine, b []StreamObs) {
		for i := range b {
			e.ObserveBatch(b[i : i+1])
		}
	}
	want := playBatchScript(t, 1, single)
	last := want.stats[len(want.stats)-1]
	if last.UnknownStreams == 0 || last.Rejected == 0 || last.Triggers == 0 || last.Suppressed == 0 {
		t.Fatalf("script exercised too little: %+v", last)
	}
	for _, shards := range []int{1, 4, 16} {
		for name, feed := range map[string]func(*Engine, []StreamObs){"batched": whole, "single": single} {
			got := playBatchScript(t, shards, feed)
			if !bytes.Equal(got.journal, want.journal) {
				t.Errorf("%s, %d shards: journal differs (%d vs %d bytes)", name, shards, len(got.journal), len(want.journal))
			}
			if !reflect.DeepEqual(got.stats, want.stats) {
				t.Errorf("%s, %d shards: stats\n got %+v\nwant %+v", name, shards, got.stats, want.stats)
			}
			if !reflect.DeepEqual(got.triggers, want.triggers) {
				t.Errorf("%s, %d shards: triggers\n got %+v\nwant %+v", name, shards, got.triggers, want.triggers)
			}
		}
	}
}
