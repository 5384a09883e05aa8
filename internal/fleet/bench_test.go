package fleet

import (
	"fmt"
	"testing"
	"time"

	"rejuv/internal/xrand"
)

// steadyEngine builds an engine with streams open and one warmup batch
// ingested, so pooled scratch and slot arrays are at their high-water
// mark before measurement begins. Health tracking runs at its default
// top-K, so the measured path is the one production pays for.
func steadyEngine(tb testing.TB, streams, batchSize int) (*Engine, []StreamObs) {
	return steadyEngineTopK(tb, streams, batchSize, 0)
}

// steadyEngineTopK is steadyEngine with an explicit HealthTopK
// (negative disables health tracking, isolating its overhead).
func steadyEngineTopK(tb testing.TB, streams, batchSize, topK int) (*Engine, []StreamObs) {
	tb.Helper()
	e, err := New(Config{
		Classes:    testClasses(),
		Now:        newFakeClock(time.Millisecond).Now,
		HealthTopK: topK,
	})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(e.Close)
	for i := 0; i < streams; i++ {
		if err := e.OpenStream(StreamID(i+1), testClasses()[i%3].Name); err != nil {
			tb.Fatal(err)
		}
	}
	rng := xrand.NewStream(42, 1)
	batch := make([]StreamObs, batchSize)
	for i := range batch {
		// Values near but below the mean: detectors step, never trigger,
		// so the measured path has no journal and no queue traffic.
		batch[i] = StreamObs{
			Stream: StreamID(rng.Intn(streams) + 1),
			Value:  4 + rng.Float64(),
		}
	}
	e.ObserveBatch(batch) // warmup: grow the pooled scratch
	return e, batch
}

// TestObserveBatchDoesNotAllocate pins the hot path at zero
// steady-state allocations: all working memory is pooled scratch grown
// to the high-water mark, and results fan in through preallocated
// counters and arrays.
func TestObserveBatchDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector, defeating the pin")
	}
	e, batch := steadyEngine(t, 64, 256)
	avg := testing.AllocsPerRun(200, func() {
		e.ObserveBatch(batch)
	})
	if avg != 0 {
		t.Errorf("ObserveBatch allocates %.1f times per batch, want 0", avg)
	}
}

// TestObserveBatchDoesNotAllocateWhileAging is the same pin with the
// health sketch actually exercised: every stream's means exceed the
// target, so each evaluated decision feeds Sketch.Update and the
// exemplar arrays, and triggers flow until the queue fills and drops.
// None of that may touch the allocator.
func TestObserveBatchDoesNotAllocateWhileAging(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector, defeating the pin")
	}
	e, batch := steadyEngine(t, 64, 256)
	for i := range batch {
		batch[i].Value = 50 // far above every class target
	}
	e.ObserveBatch(batch) // warmup: populate sketches, fill the queue
	avg := testing.AllocsPerRun(200, func() {
		e.ObserveBatch(batch)
	})
	if avg != 0 {
		t.Errorf("aging ObserveBatch allocates %.1f times per batch, want 0", avg)
	}
}

// BenchmarkFleetObserve is the headline fleet number: sustained
// observations per second through ObserveBatch at increasing stream
// counts, with health tracking at its default top-K. One iteration
// ingests one fixed-size batch.
func BenchmarkFleetObserve(b *testing.B) {
	counts := []int{1_000, 10_000, 100_000}
	if testing.Short() {
		counts = counts[:1]
	}
	const batchSize = 4096
	for _, streams := range counts {
		b.Run(fmt.Sprintf("streams=%d", streams), func(b *testing.B) {
			e, batch := steadyEngine(b, streams, batchSize)
			b.ReportAllocs()
			b.SetBytes(int64(batchSize * 16)) // 8B id + 8B value per obs
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.ObserveBatch(batch)
			}
			b.StopTimer()
			obs := float64(b.N) * float64(batchSize)
			b.ReportMetric(obs/b.Elapsed().Seconds(), "obs/s")
		})
	}
}

// BenchmarkFleetHealthOverhead measures the health sketch's ingestion
// cost at 100k streams, the figure scripts/bench.sh caps at 10%. It
// feeds the same batch to two engines, one at the default top-K and
// one with health disabled, alternating batch by batch (and which
// engine goes first) and timing each side on its own. Host-speed drift
// then lands on both sides alike; comparing separate runs instead, one
// per engine, let drift swamp the sketch's cost. It reports the
// health-on rate (obs/s), the no-health rate (bare-obs/s) and the rate
// lost to the sketch as a percentage of the no-health rate
// (overhead-%).
func BenchmarkFleetHealthOverhead(b *testing.B) {
	const streams, batchSize = 100_000, 4096
	on, batch := steadyEngineTopK(b, streams, batchSize, 0)
	off, _ := steadyEngineTopK(b, streams, batchSize, -1)
	var tOn, tOff time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		first, second := on, off
		if i%2 == 1 {
			first, second = off, on
		}
		t0 := time.Now()
		first.ObserveBatch(batch)
		t1 := time.Now()
		second.ObserveBatch(batch)
		d1, d2 := t1.Sub(t0), time.Since(t1)
		if i%2 == 1 {
			d1, d2 = d2, d1
		}
		tOn += d1
		tOff += d2
	}
	b.StopTimer()
	obs := float64(b.N) * batchSize
	b.ReportMetric(obs/tOn.Seconds(), "obs/s")
	b.ReportMetric(obs/tOff.Seconds(), "bare-obs/s")
	// The rate lost to the sketch, as a share of the no-health rate.
	b.ReportMetric(100*(tOn.Seconds()-tOff.Seconds())/tOn.Seconds(), "overhead-%")
}

// BenchmarkHealthSnapshot measures the observer's cost: assembling the
// fleet-wide health view (slot scans, sketch merge, top-K sort) while
// the fleet holds a steady population.
func BenchmarkHealthSnapshot(b *testing.B) {
	counts := []int{10_000, 100_000}
	if testing.Short() {
		counts = counts[:1]
	}
	for _, streams := range counts {
		b.Run(fmt.Sprintf("streams=%d", streams), func(b *testing.B) {
			e, batch := steadyEngine(b, streams, 4096)
			// Age a slice of the fleet so the sketches have content.
			for i := range batch {
				if i%8 == 0 {
					batch[i].Value = 50
				}
			}
			e.ObserveBatch(batch)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				snap := e.HealthSnapshot()
				if snap.OpenStreams != streams {
					b.Fatalf("open streams = %d, want %d", snap.OpenStreams, streams)
				}
			}
		})
	}
}
