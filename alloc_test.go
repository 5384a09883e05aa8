package rejuv_test

// Allocation pins for the hot path the `rejuvlint` hotpath analyzer
// guards statically: Monitor.Observe → detector → decision, with and
// without the full instrumentation stack (collector, trace ring,
// binary journal). The static analysis proves no allocation site is
// reachable from the //lint:hotpath roots without an explicit allow;
// these tests prove at runtime that the allowed sites really are
// amortized or off-path. If either test regresses, a change put an
// allocation on the per-observation path the whole fleet pays for.

import (
	"io"
	"testing"
	"time"

	"rejuv"
)

// hotPathDetector returns the paper's headline SRAA configuration. The
// observation streams below sit persistently above the baseline, so
// samples keep exceeding the target, buckets fill and triggers fire —
// exercising the trigger delivery and detector reset branches, not
// just the quiet path.
func hotPathDetector(t testing.TB) rejuv.Detector {
	t.Helper()
	det, err := rejuv.NewSRAA(rejuv.SRAAConfig{
		SampleSize: 2, Buckets: 5, Depth: 3,
		Baseline: rejuv.Baseline{Mean: 5, StdDev: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	return det
}

func TestMonitorObserveDoesNotAllocate(t *testing.T) {
	m, err := rejuv.NewMonitor(rejuv.MonitorConfig{
		Detector:  hotPathDetector(t),
		OnTrigger: func(rejuv.Trigger) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	allocs := testing.AllocsPerRun(2000, func() {
		// 30..42, always above the mean-5 baseline: every sample
		// exceeds, so buckets fill and a trigger fires roughly every
		// n*K*D samples.
		m.Observe(float64(i%13) + 30)
		i++
	})
	if allocs != 0 {
		t.Errorf("uninstrumented Monitor.Observe allocates %.1f objects per call, want 0", allocs)
	}
	if st := m.Stats(); st.Triggers == 0 {
		t.Fatalf("observation stream never triggered; the pin did not cover the delivery path (stats %+v)", st)
	}
}

func TestMonitorObserveInstrumentedDoesNotAllocate(t *testing.T) {
	reg := rejuv.NewRegistry()
	trace := rejuv.NewTraceLog(64)
	jw := rejuv.NewJournalWriter(io.Discard, rejuv.JournalMeta{Detector: "SRAA"})
	m, err := rejuv.NewMonitor(rejuv.MonitorConfig{
		Detector:  hotPathDetector(t),
		OnTrigger: func(rejuv.Trigger) {},
		Collector: rejuv.NewCollector(reg),
		Trace:     trace,
		Journal:   jw,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Warm the journal's scratch buffer and the trace ring: their first
	// records size internal buffers that are reused ever after.
	for i := 0; i < 200; i++ {
		m.Observe(float64(i%13) + 30)
	}
	i := 0
	allocs := testing.AllocsPerRun(2000, func() {
		m.Observe(float64(i%13) + 30)
		i++
	})
	if allocs != 0 {
		t.Errorf("instrumented Monitor.Observe allocates %.1f objects per call, want 0", allocs)
	}
	if err := jw.Err(); err != nil {
		t.Fatalf("journal writer failed: %v", err)
	}
	if st := m.Stats(); st.Triggers == 0 {
		t.Fatalf("observation stream never triggered; the pin did not cover the delivery path (stats %+v)", st)
	}
}

// BenchmarkMonitorObserveInstrumented times the per-observation path
// with each layer-5 sink alone and with all three (collector + trace
// ring + binary journal), on a virtual clock so the wall clock's cost
// does not mask the sinks'. Its allocs/op column is the runtime
// counterpart of the hotpath lint rule and reads 0 in every case.
func BenchmarkMonitorObserveInstrumented(b *testing.B) {
	for _, sinks := range []string{"none", "collector", "trace", "journal", "all"} {
		b.Run(sinks, func(b *testing.B) {
			vt := time.Unix(1000, 0)
			cfg := rejuv.MonitorConfig{
				Detector:  hotPathDetector(b),
				OnTrigger: func(rejuv.Trigger) {},
				Now: func() time.Time {
					vt = vt.Add(time.Millisecond)
					return vt
				},
			}
			if sinks == "collector" || sinks == "all" {
				cfg.Collector = rejuv.NewCollector(rejuv.NewRegistry())
			}
			if sinks == "trace" || sinks == "all" {
				cfg.Trace = rejuv.NewTraceLog(1024)
			}
			if sinks == "journal" || sinks == "all" {
				cfg.Journal = rejuv.NewJournalWriter(io.Discard, rejuv.JournalMeta{Detector: "SRAA"})
			}
			m, err := rejuv.NewMonitor(cfg)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < 200; i++ {
				m.Observe(float64(i%13) + 30)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Observe(float64(i%13) + 30)
			}
		})
	}
}
