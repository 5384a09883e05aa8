package ecommerce

import (
	"io"
	"testing"

	"rejuv/internal/core"
	"rejuv/internal/journal"
	"rejuv/internal/metrics"
	"rejuv/internal/num"
)

// snapValue digs one series out of a registry snapshot.
func snapValue(t *testing.T, reg *metrics.Registry, name string) metrics.SeriesSnapshot {
	t.Helper()
	for _, s := range reg.Snapshot() {
		if s.Name == name {
			return s
		}
	}
	t.Fatalf("series %s not registered", name)
	return metrics.SeriesSnapshot{}
}

// countingDetector wraps a detector and counts Internals calls.
type countingDetector struct {
	core.Detector
	calls int
}

func (c *countingDetector) Internals() core.Internals {
	c.calls++
	return c.Detector.(core.Instrumented).Internals()
}

// TestModelSnapshotsInternalsOnce pins the cost of the model's sinks
// in detector snapshots: with both the registry and a journal attached,
// the model takes one Internals snapshot per observation and hands it
// to the detector gauges and the decision record alike, plus one when
// Instrument attaches and one after each rejuvenation's reset.
func TestModelSnapshotsInternalsOnce(t *testing.T) {
	inner, err := core.NewSRAA(core.SRAAConfig{
		SampleSize: 2, Buckets: 5, Depth: 3,
		Baseline: core.Baseline{Mean: 5, StdDev: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	det := &countingDetector{Detector: inner}
	m, err := New(Config{ArrivalRate: 1.8, Transactions: 5_000, Seed: 61, Stream: 1}, det)
	if err != nil {
		t.Fatal(err)
	}
	m.Instrument(metrics.NewRegistry())
	jw := journal.NewWriter(io.Discard, journal.Meta{Detector: "SRAA"})
	m.Journal(jw)
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Rejuvenations == 0 || jw.Count(journal.KindDecision) == 0 {
		t.Fatalf("the run must decide and rejuvenate: %+v", res)
	}
	if want := int(1 + res.Completed + res.Rejuvenations); det.calls != want {
		t.Errorf("Internals called %d times, want %d (1 + %d observations + %d rejuvenations)",
			det.calls, want, res.Completed, res.Rejuvenations)
	}
}

// TestInstrumentedRunMatchesResult runs a degrading replication with the
// registry attached and checks the counters against the authoritative
// Result fields — the metrics layer must report, never perturb.
func TestInstrumentedRunMatchesResult(t *testing.T) {
	det, err := core.NewSRAA(core.SRAAConfig{
		SampleSize: 2, Buckets: 5, Depth: 3,
		Baseline: core.Baseline{Mean: 5, StdDev: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(Config{
		ArrivalRate:  1.8, // heavy load: GC stalls and rejuvenations
		Transactions: 20_000,
		Seed:         61,
		Stream:       1,
	}, det)
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	m.Instrument(reg)

	var tickTimes []float64
	if err := m.Tick(1_000, func(at float64) { tickTimes = append(tickTimes, at) }); err != nil {
		t.Fatal(err)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}

	if got := snapValue(t, reg, "sim_transactions_completed_total").Value; got != float64(res.Completed) {
		t.Errorf("completed counter = %v, Result says %d", got, res.Completed)
	}
	if got := snapValue(t, reg, "sim_transactions_lost_total").Value; got != float64(res.Lost) {
		t.Errorf("lost counter = %v, Result says %d", got, res.Lost)
	}
	if got := snapValue(t, reg, "sim_rejuvenations_total").Value; got != float64(res.Rejuvenations) {
		t.Errorf("rejuvenation counter = %v, Result says %d", got, res.Rejuvenations)
	}
	if res.Rejuvenations == 0 {
		t.Fatal("scenario produced no rejuvenations; test needs a heavier load")
	}
	if got := snapValue(t, reg, "sim_gc_stalls_total").Value; got != float64(res.GCs) {
		t.Errorf("GC counter = %v, Result says %d", got, res.GCs)
	}

	rt := snapValue(t, reg, "sim_response_time_seconds")
	if rt.Count != uint64(res.Completed) {
		t.Errorf("response-time histogram count = %d, want %d", rt.Count, res.Completed)
	}
	if !num.Eq(rt.Sum, res.RT.Mean()*float64(res.Completed), 1e-6) {
		t.Errorf("histogram sum %v inconsistent with mean %v over %d", rt.Sum, res.RT.Mean(), res.Completed)
	}

	if got := snapValue(t, reg, "des_sim_time_seconds").Value; got > res.SimTime {
		t.Errorf("sim-time gauge %v beyond final time %v", got, res.SimTime)
	}

	// Ticks fired on the virtual-time grid until the run ended.
	if len(tickTimes) == 0 {
		t.Fatal("tick callback never fired")
	}
	for i, at := range tickTimes {
		if want := 1_000 * float64(i+1); !num.Same(at, want) {
			t.Fatalf("tick %d at %v, want %v", i, at, want)
		}
	}
	if last := tickTimes[len(tickTimes)-1]; last > res.SimTime {
		t.Errorf("tick at %v after the replication ended at %v", last, res.SimTime)
	}
}

// TestInstrumentationDoesNotPerturbResults pins the core guarantee that
// attaching a registry changes nothing about the simulated trajectory.
func TestInstrumentationDoesNotPerturbResults(t *testing.T) {
	run := func(instrument bool) Result {
		det, err := core.NewSRAA(core.SRAAConfig{
			SampleSize: 2, Buckets: 5, Depth: 3,
			Baseline: core.Baseline{Mean: 5, StdDev: 5},
		})
		if err != nil {
			t.Fatal(err)
		}
		m, err := New(Config{
			ArrivalRate:  1.8,
			Transactions: 10_000,
			Seed:         67,
			Stream:       2,
		}, det)
		if err != nil {
			t.Fatal(err)
		}
		if instrument {
			m.Instrument(metrics.NewRegistry())
			if err := m.Tick(500, func(float64) {}); err != nil {
				t.Fatal(err)
			}
		}
		res, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain, instrumented := run(false), run(true)
	if plain.Completed != instrumented.Completed ||
		plain.Lost != instrumented.Lost ||
		plain.Rejuvenations != instrumented.Rejuvenations ||
		!num.Same(plain.SimTime, instrumented.SimTime) ||
		!num.Same(plain.RT.Mean(), instrumented.RT.Mean()) {
		t.Fatalf("instrumentation perturbed the run:\nplain:        %+v\ninstrumented: %+v",
			plain, instrumented)
	}
}

// TestTickValidation covers the Tick error paths.
func TestTickValidation(t *testing.T) {
	m, err := New(Config{ArrivalRate: 0.1, Transactions: 10, Seed: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Tick(0, func(float64) {}); err == nil {
		t.Error("Tick(0) accepted")
	}
	if err := m.Tick(-1, func(float64) {}); err == nil {
		t.Error("Tick(-1) accepted")
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if err := m.Tick(1, func(float64) {}); err == nil {
		t.Error("Tick after Run accepted")
	}
}
