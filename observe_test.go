package rejuv_test

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"rejuv"
)

// collectorValue digs one series value out of a registry snapshot.
func collectorValue(t *testing.T, reg *rejuv.Registry, name string) float64 {
	t.Helper()
	for _, s := range reg.Snapshot() {
		if s.Name == name {
			return s.Value
		}
	}
	t.Fatalf("series %s not registered", name)
	return 0
}

func TestCollectorPublishesMonitorState(t *testing.T) {
	det, err := rejuv.NewSRAA(rejuv.SRAAConfig{
		SampleSize: 2, Buckets: 2, Depth: 1,
		Baseline: rejuv.Baseline{Mean: 5, StdDev: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	reg := rejuv.NewRegistry()
	now := time.Unix(1000, 0)
	m, err := rejuv.NewMonitor(rejuv.MonitorConfig{
		Detector:  det,
		OnTrigger: func(rejuv.Trigger) {},
		Collector: rejuv.NewCollector(reg),
		Cooldown:  time.Minute,
		Now:       func() time.Time { return now },
	})
	if err != nil {
		t.Fatal(err)
	}

	m.Observe(100) // half a sample: no evaluation yet
	if got := collectorValue(t, reg, "rejuv_observations_total"); got != 1 {
		t.Errorf("observations = %v, want 1", got)
	}
	if got := collectorValue(t, reg, "rejuv_samples_evaluated_total"); got != 0 {
		t.Errorf("evaluations = %v, want 0", got)
	}
	if got := collectorValue(t, reg, "rejuv_detector_sample_fill"); got != 1 {
		t.Errorf("sample fill = %v, want 1", got)
	}

	m.Observe(100) // completes a sample; mean 100 > target 5 fills the bucket
	if got := collectorValue(t, reg, "rejuv_samples_evaluated_total"); got != 1 {
		t.Errorf("evaluations = %v, want 1", got)
	}
	if got := collectorValue(t, reg, "rejuv_detector_last_sample_mean"); got != 100 {
		t.Errorf("last sample mean = %v, want 100", got)
	}
	// mean 100 against target mu + 0*sigma = 5: distance 95.
	if got := collectorValue(t, reg, "rejuv_detector_mean_minus_target"); got != 95 {
		t.Errorf("mean minus target = %v, want 95", got)
	}

	// Walk the detector to a trigger: each pair of 100s is one exceeding
	// sample; (D+1) overflows per bucket, K buckets.
	for i := 0; i < 20 && collectorValue(t, reg, "rejuv_triggers_total") == 0; i++ {
		m.Observe(100)
	}
	if got := collectorValue(t, reg, "rejuv_triggers_total"); got != 1 {
		t.Fatalf("triggers = %v, want 1", got)
	}
	if got := collectorValue(t, reg, "rejuv_cooldown_active"); got != 1 {
		t.Errorf("cooldown gauge = %v, want 1 right after a trigger", got)
	}
	// After the trigger the detector has reset.
	if got := collectorValue(t, reg, "rejuv_detector_bucket_level"); got != 0 {
		t.Errorf("bucket level = %v, want 0 after reset", got)
	}

	// A second trigger inside the cooldown is suppressed.
	for i := 0; i < 20 && collectorValue(t, reg, "rejuv_triggers_suppressed_total") == 0; i++ {
		m.Observe(100)
	}
	if got := collectorValue(t, reg, "rejuv_triggers_suppressed_total"); got != 1 {
		t.Errorf("suppressed = %v, want 1", got)
	}

	// The histogram saw every observation.
	var found bool
	for _, s := range reg.Snapshot() {
		if s.Name == "rejuv_observed_metric" {
			found = true
			if s.Count != uint64(m.Stats().Observations) {
				t.Errorf("histogram count %d, want %d", s.Count, m.Stats().Observations)
			}
		}
	}
	if !found {
		t.Error("observed-metric histogram not registered")
	}
}

func TestTraceLogExplainsTrigger(t *testing.T) {
	det, err := rejuv.NewSARAA(rejuv.SARAAConfig{
		InitialSampleSize: 2, Buckets: 2, Depth: 1,
		Baseline: rejuv.Baseline{Mean: 5, StdDev: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	trace := rejuv.NewTraceLog(8)
	now := time.Unix(2000, 0)
	m, err := rejuv.NewMonitor(rejuv.MonitorConfig{
		Detector:  det,
		OnTrigger: func(rejuv.Trigger) {},
		Trace:     trace,
		Now:       func() time.Time { return now },
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40 && m.Stats().Triggers == 0; i++ {
		m.Observe(100)
	}
	if m.Stats().Triggers == 0 {
		t.Fatal("detector never triggered")
	}

	ctx := trace.TriggerContext(3)
	if len(ctx) == 0 {
		t.Fatal("no trigger context recorded")
	}
	last := ctx[len(ctx)-1]
	if !last.Triggered {
		t.Fatalf("context does not end in a trigger: %+v", last)
	}
	if last.SampleMean != 100 {
		t.Errorf("trigger sample mean = %v, want 100", last.SampleMean)
	}
	if last.SampleMean <= last.Target {
		t.Errorf("trace records mean %v not exceeding target %v: cannot explain the trigger",
			last.SampleMean, last.Target)
	}
	// Every observation lands at the same instant, so each record sits
	// at the journal clock's origin: 0 seconds after the first one.
	if last.Value != 100 || last.Seq == 0 || last.Time != 0 {
		t.Errorf("entry inputs wrong: %+v", last)
	}

	// JSON-lines dump: a header line, then one parseable object per line.
	var b strings.Builder
	if err := trace.Dump(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(b.String(), "\n"), "\n")
	if len(lines) != trace.Len()+1 {
		t.Fatalf("dump has %d lines, want %d entries plus a header", len(lines), trace.Len())
	}
	var hdr struct {
		Retained int    `json:"retained"`
		Total    uint64 `json:"total"`
		Dropped  uint64 `json:"dropped"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &hdr); err != nil {
		t.Fatalf("unparseable dump header %q: %v", lines[0], err)
	}
	if hdr.Retained != trace.Len() || hdr.Total != trace.Total() || hdr.Dropped != trace.Dropped() {
		t.Fatalf("dump header %+v, want retained=%d total=%d dropped=%d",
			hdr, trace.Len(), trace.Total(), trace.Dropped())
	}
	for _, line := range lines[1:] {
		var e rejuv.JournalRecord
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("unparseable trace line %q: %v", line, err)
		}
	}
}

// countingDetector wraps a detector and counts Internals calls.
type countingDetector struct {
	rejuv.Detector
	calls int
}

func (c *countingDetector) Internals() rejuv.DetectorInternals {
	c.calls++
	return c.Detector.(rejuv.Instrumented).Internals()
}

// TestMonitorSnapshotsInternalsOnce pins the cost of the sinks in
// detector snapshots: with a collector attached the monitor takes one
// Internals snapshot per admitted observation and hands it to every
// sink; with only a journal or a trace ring it takes one per decision
// they record; with no sink it takes none.
func TestMonitorSnapshotsInternalsOnce(t *testing.T) {
	for _, sinks := range []string{"none", "collector", "journal", "trace", "all"} {
		t.Run(sinks, func(t *testing.T) {
			inner, err := rejuv.NewSRAA(rejuv.SRAAConfig{
				SampleSize: 2, Buckets: 2, Depth: 1,
				Baseline: rejuv.Baseline{Mean: 5, StdDev: 5},
			})
			if err != nil {
				t.Fatal(err)
			}
			det := &countingDetector{Detector: inner}
			cfg := rejuv.MonitorConfig{Detector: det, OnTrigger: func(rejuv.Trigger) {}}
			var buf bytes.Buffer
			var jw *rejuv.JournalWriter
			if sinks == "collector" || sinks == "all" {
				cfg.Collector = rejuv.NewCollector(rejuv.NewRegistry())
			}
			if sinks == "journal" || sinks == "all" {
				jw = rejuv.NewJournalWriter(&buf, rejuv.JournalMeta{Detector: "SRAA"})
				cfg.Journal = jw
			}
			if sinks == "trace" || sinks == "all" {
				cfg.Trace = rejuv.NewTraceLog(8)
			}
			m, err := rejuv.NewMonitor(cfg)
			if err != nil {
				t.Fatal(err)
			}
			const n = 60
			for i := 0; i < n; i++ {
				v := 3.0 + float64(i%4)
				if i%20 >= 5 {
					v = 100
				}
				if i == 7 {
					v = math.NaN() // rejected: no snapshot
				}
				m.Observe(v)
			}
			st := m.Stats()
			if st.Triggers == 0 || st.Rejected != 1 {
				t.Fatalf("stream must trigger and have one rejection: %+v", st)
			}
			want := 0
			switch sinks {
			case "collector", "all":
				want = n - 1
			case "journal":
				jr, err := rejuv.NewJournalReader(&buf)
				if err != nil {
					t.Fatal(err)
				}
				recs, err := jr.ReadAll()
				if err != nil {
					t.Fatal(err)
				}
				for _, r := range recs {
					if r.Kind == rejuv.JournalKindDecision {
						want++
					}
				}
			case "trace":
				want = int(cfg.Trace.Total())
			}
			if sinks != "none" && want == 0 {
				t.Fatal("the sinks recorded nothing")
			}
			if det.calls != want {
				t.Errorf("Internals called %d times, want %d", det.calls, want)
			}
		})
	}
}

// TestTraceLogMatchesJournal pins the one-schema contract: the trace
// ring holds the very decision records the monitor journals. One
// monitor feeds both sinks over a stream that triggers, has triggers
// eaten by the cooldown and wraps the ring; every retained ring record
// must equal its journal decision record on every field but Seq and
// Value, which the ring fills from the observe stream instead.
func TestTraceLogMatchesJournal(t *testing.T) {
	det, err := rejuv.NewSRAA(rejuv.SRAAConfig{
		SampleSize: 2, Buckets: 2, Depth: 1,
		Baseline: rejuv.Baseline{Mean: 5, StdDev: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	trace := rejuv.NewTraceLog(8)
	var buf bytes.Buffer
	jw := rejuv.NewJournalWriter(&buf, rejuv.JournalMeta{Detector: "SRAA"})
	clock := time.Unix(3000, 0)
	m, err := rejuv.NewMonitor(rejuv.MonitorConfig{
		Detector:  det,
		OnTrigger: func(rejuv.Trigger) {},
		Cooldown:  20 * time.Second,
		Trace:     trace,
		Journal:   jw,
		Now: func() time.Time {
			clock = clock.Add(1250 * time.Millisecond)
			return clock
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 120; i++ {
		v := 3.0 + float64(i%4)
		if i%40 >= 10 {
			v = 100 + float64(i)
		}
		m.Observe(v)
	}
	if err := jw.Err(); err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	if st.Triggers == 0 || st.Suppressed == 0 {
		t.Fatalf("stream must both deliver and suppress triggers: %+v", st)
	}

	jr, err := rejuv.NewJournalReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := jr.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	// Each journal decision, with the observation ordinal and value of
	// the observe record written just before it.
	type decision struct {
		rec   rejuv.JournalRecord
		seq   uint64
		value float64
	}
	var decisions []decision
	var observed uint64
	var lastValue float64
	for _, r := range recs {
		switch r.Kind {
		case rejuv.JournalKindObserve:
			observed++
			lastValue = r.Value
		case rejuv.JournalKindDecision:
			decisions = append(decisions, decision{r, observed, lastValue})
		}
	}
	if trace.Total() != uint64(len(decisions)) {
		t.Fatalf("ring recorded %d decisions, journal %d", trace.Total(), len(decisions))
	}

	ring := trace.Entries()
	if len(ring) != 8 || trace.Total() <= uint64(len(ring)) {
		t.Fatalf("ring did not wrap: retained %d of %d", len(ring), trace.Total())
	}
	var triggered, suppressed int
	for i, got := range ring {
		want := decisions[len(decisions)-len(ring)+i]
		if got.Seq != want.seq || got.Value != want.value {
			t.Errorf("ring record %d: seq=%d value=%v, want observation %d value %v",
				i, got.Seq, got.Value, want.seq, want.value)
		}
		got.Seq, got.Value = want.rec.Seq, want.rec.Value
		if got != want.rec {
			t.Errorf("ring record %d differs from the journal:\n ring    %+v\n journal %+v", i, got, want.rec)
		}
		if got.Triggered {
			triggered++
		}
		if got.Suppressed {
			suppressed++
		}
	}
	if triggered == 0 || suppressed == 0 {
		t.Errorf("retained window has %d triggered and %d suppressed records; want both", triggered, suppressed)
	}
}

func TestTraceLogRingOverwritesOldest(t *testing.T) {
	l := rejuv.NewTraceLog(3)
	for i := 1; i <= 5; i++ {
		l.Record(rejuv.JournalRecord{Seq: uint64(i)})
	}
	if l.Len() != 3 {
		t.Fatalf("len = %d, want 3", l.Len())
	}
	if l.Total() != 5 {
		t.Fatalf("total = %d, want 5", l.Total())
	}
	got := l.Entries()
	for i, want := range []uint64{3, 4, 5} {
		if got[i].Seq != want {
			t.Fatalf("entries = %+v, want observations 3,4,5 oldest-first", got)
		}
	}
	if ctx := l.TriggerContext(2); ctx != nil {
		t.Fatalf("trigger context without triggers = %+v, want nil", ctx)
	}
}

// TestTraceLogDroppedCountsUnreadOverwrites pins the semantics of
// rejuv_tracelog_dropped_total: only overwrites of entries that no
// snapshot ever returned count as drops — a full ring whose content is
// being read is not losing evidence.
func TestTraceLogDroppedCountsUnreadOverwrites(t *testing.T) {
	reg := rejuv.NewRegistry()
	l := rejuv.NewTraceLog(3)
	l.Instrument(reg)

	for i := 1; i <= 3; i++ {
		l.Record(rejuv.JournalRecord{Seq: uint64(i)})
	}
	if l.Dropped() != 0 {
		t.Fatalf("dropped=%d before any overwrite", l.Dropped())
	}

	// Entry 1 was never snapshotted; overwriting it is a drop.
	l.Record(rejuv.JournalRecord{Seq: 4})
	if l.Dropped() != 1 {
		t.Fatalf("dropped=%d after unread overwrite, want 1", l.Dropped())
	}

	// A snapshot marks the retained entries (2,3,4) as read, so the
	// next three overwrites are not drops.
	_ = l.Entries()
	for i := 5; i <= 7; i++ {
		l.Record(rejuv.JournalRecord{Seq: uint64(i)})
	}
	if l.Dropped() != 1 {
		t.Fatalf("dropped=%d after overwriting read entries, want still 1", l.Dropped())
	}

	// Entry 5 (recorded after the snapshot) is unread; dropping it
	// counts again.
	l.Record(rejuv.JournalRecord{Seq: 8})
	if l.Dropped() != 2 {
		t.Fatalf("dropped=%d, want 2", l.Dropped())
	}

	if got := collectorValue(t, reg, "rejuv_tracelog_dropped_total"); got != 2 {
		t.Errorf("rejuv_tracelog_dropped_total=%v, want 2", got)
	}
}

// TestMonitorStatsRace drives Observe, Stats, and a trace/collector
// reader concurrently; under -race this pins the documented guarantee
// that Stats is a consistent locked snapshot (the LastTrigger field in
// particular is only read under the lock).
func TestMonitorStatsRace(t *testing.T) {
	det, err := rejuv.NewCLTA(rejuv.CLTAConfig{
		SampleSize: 5, Quantile: 1.96,
		Baseline: rejuv.Baseline{Mean: 5, StdDev: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	reg := rejuv.NewRegistry()
	trace := rejuv.NewTraceLog(16)
	m, err := rejuv.NewMonitor(rejuv.MonitorConfig{
		Detector:  det,
		OnTrigger: func(rejuv.Trigger) {},
		Cooldown:  time.Microsecond,
		Collector: rejuv.NewCollector(reg),
		Trace:     trace,
	})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				m.Observe(100)
			}
		}()
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				s := m.Stats()
				if s.Triggers > 0 && s.LastTrigger.IsZero() {
					t.Error("triggers counted but LastTrigger still zero")
					return
				}
				_ = trace.Entries()
				_ = reg.Snapshot()
			}
		}()
	}
	wg.Wait()
	if s := m.Stats(); s.Observations != 8000 {
		t.Fatalf("observations = %d, want 8000", s.Observations)
	}
}
