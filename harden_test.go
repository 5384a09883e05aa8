package rejuv_test

import (
	"bytes"
	"math"
	"slices"
	"testing"
	"time"

	"rejuv"
)

// TestMonitorCooldownBoundary pins the cooldown window edge: a trigger
// arriving exactly when the window expires is delivered, not
// suppressed — the window is [LastTrigger, LastTrigger+Cooldown), open
// on the right.
func TestMonitorCooldownBoundary(t *testing.T) {
	now := time.Unix(1000, 0)
	triggers := 0
	m, err := rejuv.NewMonitor(rejuv.MonitorConfig{
		Detector:  testDetector(t),
		OnTrigger: func(rejuv.Trigger) { triggers++ },
		Cooldown:  10 * time.Second,
		Now:       func() time.Time { return now },
	})
	if err != nil {
		t.Fatal(err)
	}
	m.Observe(100)
	m.Observe(100) // first trigger at t=1000
	if triggers != 1 {
		t.Fatalf("%d triggers after warmup, want 1", triggers)
	}
	// One nanosecond before expiry: still suppressed.
	now = now.Add(10*time.Second - time.Nanosecond)
	m.Observe(100)
	m.Observe(100)
	if triggers != 1 {
		t.Fatalf("trigger delivered %v before cooldown expiry", time.Nanosecond)
	}
	// Exactly at expiry: delivered.
	now = now.Add(time.Nanosecond)
	m.Observe(100)
	m.Observe(100)
	if triggers != 2 {
		t.Fatal("trigger exactly at cooldown expiry was suppressed")
	}
	s := m.Stats()
	if s.Triggers != 2 || s.Suppressed != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

// detectorFamilies builds one fresh detector per family, mirroring the
// conformance harness reference parameters.
func detectorFamilies(t *testing.T) map[string]func() rejuv.Detector {
	t.Helper()
	base := rejuv.Baseline{Mean: 5, StdDev: 5}
	must := func(d rejuv.Detector, err error) rejuv.Detector {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	return map[string]func() rejuv.Detector{
		"SRAA": func() rejuv.Detector {
			return must(rejuv.NewSRAA(rejuv.SRAAConfig{SampleSize: 4, Buckets: 5, Depth: 3, Baseline: base}))
		},
		"SARAA": func() rejuv.Detector {
			return must(rejuv.NewSARAA(rejuv.SARAAConfig{InitialSampleSize: 6, Buckets: 5, Depth: 3, Baseline: base}))
		},
		"Static": func() rejuv.Detector {
			return must(rejuv.NewStaticDetector(5, 3, base))
		},
		"CLTA": func() rejuv.Detector {
			return must(rejuv.NewCLTA(rejuv.CLTAConfig{SampleSize: 10, Quantile: 1.96, Baseline: base}))
		},
		"Shewhart": func() rejuv.Detector {
			return must(rejuv.NewShewhart(3, base))
		},
		"EWMA": func() rejuv.Detector {
			return must(rejuv.NewEWMA(0.2, 3, base))
		},
		"CUSUM": func() rejuv.Detector {
			return must(rejuv.NewCUSUM(0.5, 5, base))
		},
		"Adaptive": func() rejuv.Detector {
			return must(rejuv.NewAdaptive(16, func(b rejuv.Baseline) (rejuv.Detector, error) {
				return rejuv.NewSRAA(rejuv.SRAAConfig{SampleSize: 2, Buckets: 5, Depth: 3, Baseline: b})
			}))
		},
	}
}

// finiteInternals asserts that an instrumented detector's state carries
// no NaN or Inf.
func finiteInternals(t *testing.T, family string, d rejuv.Detector) {
	t.Helper()
	in, ok := d.(rejuv.Instrumented)
	if !ok {
		t.Fatalf("%s: detector is not Instrumented", family)
	}
	snap := in.Internals()
	for name, v := range map[string]float64{"Target": snap.Target, "Statistic": snap.Statistic} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("%s: internals field %s is non-finite: %v", family, name, v)
		}
	}
}

// TestHygieneAcrossFamilies pins the hygiene contract for every
// detector family: under HygieneReject a stream salted with NaN and
// ±Inf produces exactly the trigger count of the clean stream and
// leaves the detector internals finite; under HygieneClamp internals
// stay finite too; under HygieneOff the poison reaches the detector
// (legacy behaviour) but must still never panic.
func TestHygieneAcrossFamilies(t *testing.T) {
	poisons := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
	clean := make([]float64, 120)
	for i := range clean {
		clean[i] = 5 + float64(i%3) // mild healthy noise around the mean
	}

	for family, build := range detectorFamilies(t) {
		t.Run(family, func(t *testing.T) {
			countTriggers := func(h rejuv.Hygiene, salt bool) (int, rejuv.MonitorStats, rejuv.Detector) {
				det := build()
				triggers := 0
				m, err := rejuv.NewMonitor(rejuv.MonitorConfig{
					Detector:  det,
					OnTrigger: func(rejuv.Trigger) { triggers++ },
					Hygiene:   h,
				})
				if err != nil {
					t.Fatal(err)
				}
				for i, x := range clean {
					if salt && i%7 == 3 {
						m.Observe(poisons[i%len(poisons)])
					}
					m.Observe(x)
				}
				return triggers, m.Stats(), det
			}

			cleanTriggers, _, _ := countTriggers(rejuv.HygieneReject, false)

			rejTriggers, rejStats, rejDet := countTriggers(rejuv.HygieneReject, true)
			if rejTriggers != cleanTriggers {
				t.Errorf("HygieneReject: %d triggers with poison, %d clean — rejection must be invisible to the detector",
					rejTriggers, cleanTriggers)
			}
			if rejStats.Rejected == 0 {
				t.Error("HygieneReject: poisoned stream counted zero rejections")
			}
			finiteInternals(t, family, rejDet)

			_, clampStats, clampDet := countTriggers(rejuv.HygieneClamp, true)
			if clampStats.Rejected == 0 {
				t.Error("HygieneClamp: poisoned stream counted zero interceptions")
			}
			finiteInternals(t, family, clampDet)

			// Legacy pass-through: no panic is the only guarantee.
			_, offStats, _ := countTriggers(rejuv.HygieneOff, true)
			if offStats.Rejected != 0 {
				t.Errorf("HygieneOff: counted %d rejections, want 0", offStats.Rejected)
			}
		})
	}
}

// TestHygieneClampSubstitutesLastValue pins the clamp policy at the
// detector boundary: the detector sees the previous admitted value in
// place of the poison.
func TestHygieneClampSubstitutesLastValue(t *testing.T) {
	var mean float64
	m, err := rejuv.NewMonitor(rejuv.MonitorConfig{
		Detector:  testDetector(t), // SRAA n=1: every observation is a sample
		OnTrigger: func(tr rejuv.Trigger) { mean = tr.Decision.SampleMean },
		Hygiene:   rejuv.HygieneClamp,
	})
	if err != nil {
		t.Fatal(err)
	}
	m.Observe(100)        // fills the single bucket slot
	m.Observe(math.NaN()) // clamped to 100: overflows, triggers
	if mean != 100 {
		t.Fatalf("clamped sample mean = %v, want 100", mean)
	}
	if s := m.Stats(); s.Rejected != 1 || s.Triggers != 1 {
		t.Fatalf("stats = %+v", s)
	}
	// Clamp before any admitted value degrades to rejection.
	m2, err := rejuv.NewMonitor(rejuv.MonitorConfig{
		Detector:  testDetector(t),
		OnTrigger: func(rejuv.Trigger) {},
		Hygiene:   rejuv.HygieneClamp,
	})
	if err != nil {
		t.Fatal(err)
	}
	m2.Observe(math.Inf(1))
	if s := m2.Stats(); s.Rejected != 1 {
		t.Fatalf("leading poison under clamp: stats = %+v", s)
	}
}

// TestMonitorStallWatchdog pins the staleness watchdog: silence longer
// than MaxSilence trips it once, an observation clears it, and a later
// silence trips it again.
func TestMonitorStallWatchdog(t *testing.T) {
	now := time.Unix(5000, 0)
	var stalls []time.Duration
	reg := rejuv.NewRegistry()
	m, err := rejuv.NewMonitor(rejuv.MonitorConfig{
		Detector:   testDetector(t),
		OnTrigger:  func(rejuv.Trigger) {},
		Now:        func() time.Time { return now },
		MaxSilence: 30 * time.Second,
		OnStall:    func(s time.Duration) { stalls = append(stalls, s) },
		Collector:  rejuv.NewCollector(reg),
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.CheckStall() {
		t.Fatal("watchdog stalled before it was armed")
	}
	m.Observe(1)
	now = now.Add(10 * time.Second)
	if m.CheckStall() {
		t.Fatal("watchdog tripped inside the allowed silence")
	}
	now = now.Add(25 * time.Second) // 35 s since the observation
	if !m.CheckStall() {
		t.Fatal("watchdog did not trip after MaxSilence")
	}
	if m.CheckStall() != true || len(stalls) != 1 {
		t.Fatalf("stall did not latch: OnStall ran %d times", len(stalls))
	}
	if stalls[0] != 35*time.Second {
		t.Errorf("OnStall silence = %v, want 35s", stalls[0])
	}
	if got := collectorValue(t, reg, "rejuv_stream_stalled"); got != 1 {
		t.Errorf("rejuv_stream_stalled = %v, want 1 while stalled", got)
	}
	m.Observe(1) // stream resumes
	if m.CheckStall() {
		t.Fatal("watchdog still stalled after the stream resumed")
	}
	if got := collectorValue(t, reg, "rejuv_stream_stalled"); got != 0 {
		t.Errorf("rejuv_stream_stalled = %v, want 0 after resume", got)
	}
	now = now.Add(31 * time.Second)
	if !m.CheckStall() {
		t.Fatal("watchdog did not trip on the second silence")
	}
	if s := m.Stats(); s.Stalls != 2 {
		t.Fatalf("stats.Stalls = %d, want 2", s.Stalls)
	}
	if got := collectorValue(t, reg, "rejuv_stalls_total"); got != 2 {
		t.Errorf("rejuv_stalls_total = %v, want 2", got)
	}
}

// TestMonitorSurvivesTriggerPanic pins panic isolation: a panicking
// OnTrigger is recovered, counted, and does not poison the monitor for
// later observations.
func TestMonitorSurvivesTriggerPanic(t *testing.T) {
	calls := 0
	reg := rejuv.NewRegistry()
	m, err := rejuv.NewMonitor(rejuv.MonitorConfig{
		Detector:  testDetector(t),
		OnTrigger: func(rejuv.Trigger) { calls++; panic("restart hook exploded") },
		Collector: rejuv.NewCollector(reg),
	})
	if err != nil {
		t.Fatal(err)
	}
	deliver := func() {
		m.Observe(100)
		m.Observe(100)
	}
	deliver()
	deliver() // the monitor must still work after the first panic
	if calls != 2 {
		t.Fatalf("OnTrigger ran %d times, want 2", calls)
	}
	s := m.Stats()
	if s.TriggerPanics != 2 || s.Triggers != 2 {
		t.Fatalf("stats = %+v", s)
	}
	if got := collectorValue(t, reg, "rejuv_trigger_panics_total"); got != 2 {
		t.Errorf("rejuv_trigger_panics_total = %v, want 2", got)
	}
}

// TestMonitorRejectedJournalsFault pins the journal contract for
// rejected observations: the poison becomes a KindFault record, never
// an Observe record, so replay stays byte-identical to a clean run.
// Fault records are written from the first observation on, timed
// against an epoch anchored there, even when no value has been
// admitted yet.
func TestMonitorRejectedJournalsFault(t *testing.T) {
	nan, pinf, ninf := math.NaN(), math.Inf(1), math.Inf(-1)
	for _, tc := range []struct {
		name       string
		in         []float64 // observed one second apart
		classes    []string
		faultTimes []float64
	}{
		{"after-admitted", []float64{5, nan, ninf}, []string{"nan", "-inf"}, []float64{1, 2}},
		{"leading", []float64{nan, pinf, 5, nan}, []string{"nan", "+inf", "nan"}, []float64{0, 1, 3}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			now := time.Unix(0, 0)
			var buf bytes.Buffer
			jw := rejuv.NewJournalWriter(&buf, rejuv.JournalMeta{CreatedBy: "harden_test"})
			m, err := rejuv.NewMonitor(rejuv.MonitorConfig{
				Detector:  testDetector(t),
				OnTrigger: func(rejuv.Trigger) {},
				Now:       func() time.Time { return now },
				Journal:   jw,
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, x := range tc.in {
				m.Observe(x)
				now = now.Add(time.Second)
			}
			if err := jw.Err(); err != nil {
				t.Fatal(err)
			}
			jr, err := rejuv.NewJournalReader(&buf)
			if err != nil {
				t.Fatal(err)
			}
			recs, err := jr.ReadAll()
			if err != nil {
				t.Fatal(err)
			}
			var observes int
			var classes []string
			var times []float64
			for _, r := range recs {
				switch r.Kind {
				case rejuv.JournalKindObserve:
					observes++
				case rejuv.JournalKindFault:
					classes = append(classes, r.Class)
					times = append(times, r.Time)
				}
			}
			if observes != 1 {
				t.Errorf("journal has %d observe records, want 1 (poison must not be journaled as observations)", observes)
			}
			if !slices.Equal(classes, tc.classes) || !slices.Equal(times, tc.faultTimes) {
				t.Errorf("fault records: classes %v at %v, want %v at %v", classes, times, tc.classes, tc.faultTimes)
			}
			if got := m.Stats().Rejected; got != uint64(len(tc.classes)) {
				t.Errorf("Stats().Rejected = %d, want %d, one per fault record", got, len(tc.classes))
			}
		})
	}
}
