package journal

import (
	"math"
	"testing"
)

// dec builds a decision record for the analysis tests.
func dec(t float64, mean, target float64, level int, triggered, suppressed bool) Record {
	return Record{
		Kind: KindDecision, Time: t, Evaluated: true,
		SampleMean: mean, Target: target, Level: level,
		Triggered: triggered, Suppressed: suppressed,
	}
}

// analysisFixture is a two-phase single-rep stream: a suppressed
// trigger and a GC inside the first phase, then a second quick trigger.
func analysisFixture() []Record {
	return []Record{
		{Kind: KindRepStart, Rep: 0, Seed: 9},
		{Kind: KindObserve, Time: 10, Value: 4},
		dec(10, 4, 5, 0, false, false), // below target
		{Kind: KindGCStart, Time: 15, HeapMB: 90},
		{Kind: KindGCEnd, Time: 75, HeapMB: 3072},
		{Kind: KindObserve, Time: 80, Value: 70},
		dec(80, 70, 5, 1, false, false), // first exceedance, level 1
		{Kind: KindObserve, Time: 90, Value: 71},
		dec(90, 71, 5, 2, true, true), // suppressed trigger
		{Kind: KindObserve, Time: 100, Value: 72},
		dec(100, 72, 5, 3, true, false), // delivered trigger #1
		{Kind: KindRejuvenation, Time: 100, Killed: 12},
		{Kind: KindReset, Time: 100},
		{Kind: KindObserve, Time: 110, Value: 80},
		dec(110, 80, 5, 1, true, false), // delivered trigger #2
		{Kind: KindRejuvenation, Time: 110, Killed: 3},
		{Kind: KindReset, Time: 110},
	}
}

func TestAnalyzeCountsAndTriggers(t *testing.T) {
	a := Analyze(Meta{Detector: "SRAA"}, FormatBinary, analysisFixture(), 3)
	if a.Reps != 1 || a.Observations != 5 || a.Decisions != 5 || a.Resets != 2 {
		t.Errorf("counts: reps=%d obs=%d dec=%d resets=%d", a.Reps, a.Observations, a.Decisions, a.Resets)
	}
	if a.Triggers != 2 || a.Suppressed != 1 {
		t.Errorf("triggers=%d suppressed=%d, want 2/1", a.Triggers, a.Suppressed)
	}
	if a.Rejuvenations != 2 || a.Killed != 15 || a.GCs != 1 {
		t.Errorf("rejuvenations=%d killed=%d gcs=%d", a.Rejuvenations, a.Killed, a.GCs)
	}
	if a.Duration != 110 {
		t.Errorf("duration=%v, want 110", a.Duration)
	}
	if len(a.Events) != 2 {
		t.Fatalf("got %d trigger events, want 2", len(a.Events))
	}

	ev := a.Events[0]
	if ev.Time != 100 || ev.Rep != 0 || ev.Index != 1 {
		t.Errorf("trigger 1 at t=%v rep=%d index=%d", ev.Time, ev.Rep, ev.Index)
	}
	if ev.FirstExceedance != 80 || ev.TimeToTrigger != 20 {
		t.Errorf("trigger 1 firstExceedance=%v timeToTrigger=%v, want 80/20", ev.FirstExceedance, ev.TimeToTrigger)
	}
	if ev.Suppressed != 1 || ev.GCs != 1 {
		t.Errorf("trigger 1 suppressed=%d gcs=%d, want 1/1", ev.Suppressed, ev.GCs)
	}
	if len(ev.Window) != 3 || ev.Window[2].Time != 100 || ev.Window[0].Time != 80 {
		t.Errorf("trigger 1 window: %+v", ev.Window)
	}
	// Dwell: level 0 entered at t=10, level 1 at 80, level 2 at 90,
	// trigger at 100 → 70s at level 0, 10s at 1, 10s at 2.
	wantDwell := []float64{70, 10, 10}
	if len(ev.Dwell) != len(wantDwell) {
		t.Fatalf("trigger 1 dwell %v, want %v", ev.Dwell, wantDwell)
	}
	for i := range wantDwell {
		if math.Abs(ev.Dwell[i]-wantDwell[i]) > 1e-9 {
			t.Errorf("dwell[%d]=%v, want %v", i, ev.Dwell[i], wantDwell[i])
		}
	}

	// Phase 2 has a single decision that both exceeds and triggers:
	// time-to-trigger collapses to zero.
	ev2 := a.Events[1]
	if ev2.FirstExceedance != 110 || ev2.TimeToTrigger != 0 {
		t.Errorf("trigger 2 firstExceedance=%v timeToTrigger=%v, want 110/0", ev2.FirstExceedance, ev2.TimeToTrigger)
	}
	if ev2.Suppressed != 0 || ev2.GCs != 0 {
		t.Errorf("trigger 2 inherited phase state: suppressed=%d gcs=%d", ev2.Suppressed, ev2.GCs)
	}
}

func TestAnalyzePhases(t *testing.T) {
	ps := Analyze(Meta{}, FormatBinary, analysisFixture(), 3).Phases()
	if ps.Triggers != 2 || ps.SuppressedTotal != 1 {
		t.Errorf("phases: triggers=%d suppressed=%d", ps.Triggers, ps.SuppressedTotal)
	}
	ttt := ps.TimeToTrigger
	if ttt.N != 2 || ttt.Min != 0 || ttt.Max != 20 || math.Abs(ttt.Mean-10) > 1e-9 {
		t.Errorf("time-to-trigger summary: %+v", ttt)
	}
	// Mean dwell at level 0 across the two phases: (70 + 0) / 2.
	if len(ps.DwellMean) == 0 || math.Abs(ps.DwellMean[0]-35) > 1e-9 {
		t.Errorf("dwell mean: %v", ps.DwellMean)
	}
}

func TestAnalyzeMultiRepDuration(t *testing.T) {
	records := []Record{
		{Kind: KindRepStart, Rep: 0},
		{Kind: KindObserve, Time: 40},
		{Kind: KindRepStart, Rep: 1}, // clock restarts
		{Kind: KindObserve, Time: 30},
	}
	a := Analyze(Meta{}, FormatBinary, records, 1)
	if a.Reps != 2 {
		t.Errorf("reps=%d, want 2", a.Reps)
	}
	if a.Duration != 70 {
		t.Errorf("duration=%v, want 70 (40 + 30 across reps)", a.Duration)
	}
}

func TestAnalyzeNoExceedanceIsNaN(t *testing.T) {
	// A trigger with no prior mean>target decision (possible for chart
	// detectors whose statistic, not the mean, crossed) reports NaN.
	records := []Record{
		dec(10, 4, 5, 0, true, false),
	}
	a := Analyze(Meta{}, FormatBinary, records, 4)
	if len(a.Events) != 1 {
		t.Fatalf("events: %d", len(a.Events))
	}
	if !math.IsNaN(a.Events[0].FirstExceedance) || !math.IsNaN(a.Events[0].TimeToTrigger) {
		t.Errorf("want NaN first-exceedance/time-to-trigger, got %v/%v",
			a.Events[0].FirstExceedance, a.Events[0].TimeToTrigger)
	}
}

func TestDiffIdenticalAndDiverging(t *testing.T) {
	a := analysisFixture()

	same := Diff(Meta{}, a, Meta{}, analysisFixture(), 3)
	if same.Divergence != nil {
		t.Fatalf("identical streams reported divergence at ordinal %d", same.Divergence.Ordinal)
	}
	if same.CommonDecisions != 5 {
		t.Errorf("common decisions=%d, want 5", same.CommonDecisions)
	}

	// Suppression is cooldown-owned and must be masked by the diff.
	b := analysisFixture()
	for i := range b {
		b[i].Suppressed = false
	}
	masked := Diff(Meta{}, a, Meta{}, b, 3)
	if masked.Divergence != nil {
		t.Errorf("suppression flip reported as divergence")
	}

	// A sample-mean change is a real divergence.
	c := analysisFixture()
	c[6].SampleMean += 1 // the t=80 decision, ordinal 1
	diff := Diff(Meta{}, a, Meta{}, c, 3)
	if diff.Divergence == nil {
		t.Fatal("diff missed a sample-mean divergence")
	}
	if diff.Divergence.Ordinal != 1 || diff.CommonDecisions != 1 {
		t.Errorf("divergence at ordinal %d with %d common, want 1/1",
			diff.Divergence.Ordinal, diff.CommonDecisions)
	}

	// A prefix relationship is not a divergence; the counts differ.
	prefix := Diff(Meta{}, a, Meta{}, a[:9], 3)
	if prefix.Divergence != nil {
		t.Errorf("prefix stream reported divergence")
	}
	if prefix.CommonDecisions != 3 {
		t.Errorf("prefix common decisions=%d, want 3", prefix.CommonDecisions)
	}
}

// causalityFixture is a single-rep stream where trigger id 0xBEEF links
// a decision to a two-attempt actuator execution, amid unrelated
// records: an earlier id-less journal era, and a second manual
// execution with no trigger id.
func causalityFixture() []Record {
	d := dec(100, 72, 5, 3, true, false)
	d.TriggerID = 0xBEEF
	return []Record{
		{Kind: KindRepStart, Rep: 0, Seed: 9},
		{Kind: KindObserve, Time: 10, Value: 4},
		dec(10, 4, 5, 0, false, false),
		{Kind: KindObserve, Time: 80, Value: 70},
		dec(80, 70, 5, 1, false, false),
		{Kind: KindObserve, Time: 90, Value: 71},
		dec(90, 71, 5, 2, true, true),
		{Kind: KindObserve, Time: 100, Value: 72},
		d,
		{Kind: KindActStart, Time: 100, TriggerID: 0xBEEF},
		{Kind: KindActAttempt, Time: 101, Attempt: 1, OK: false, Class: "io timeout", Backoff: 2, TriggerID: 0xBEEF},
		{Kind: KindActAttempt, Time: 103, Attempt: 2, OK: true, TriggerID: 0xBEEF},
		{Kind: KindReset, Time: 103},
		{Kind: KindActStart, Time: 200},
		{Kind: KindActAttempt, Time: 201, Attempt: 1, OK: true},
	}
}

func TestTraceCausality(t *testing.T) {
	c, ok := TraceCausality(causalityFixture(), 0xBEEF, 3)
	if !ok {
		t.Fatal("TraceCausality did not find id 0xBEEF")
	}
	if c.Stream != 0 || c.Class != "" {
		t.Errorf("single-stream chain on stream %d class %q", c.Stream, c.Class)
	}
	if c.Decision.Time != 100 || !c.Decision.Triggered {
		t.Errorf("decision: %+v", c.Decision)
	}
	if len(c.Observations) != 3 || c.Observations[0].Time != 80 || c.Observations[2].Time != 100 {
		t.Errorf("observations: %+v", c.Observations)
	}
	if len(c.Actions) != 1 {
		t.Fatalf("got %d actions, want 1 (the manual execution must not attach)", len(c.Actions))
	}
	act := c.Actions[0]
	if len(act.Attempts) != 2 || !act.Succeeded() || act.GaveUp || act.End != 103 {
		t.Errorf("action: %+v", act)
	}
	if act.Attempts[0].Class != "io timeout" || act.Attempts[0].Backoff != 2 {
		t.Errorf("first attempt: %+v", act.Attempts[0])
	}
}

func TestTraceCausalityFleet(t *testing.T) {
	recs := []Record{
		{Kind: KindStreamOpen, Stream: 7, Class: "web"},
		{Kind: KindStreamOpen, Stream: 8, Class: "db"},
		{Kind: KindObserve, Time: 1, Stream: 7, Value: 50},
		{Kind: KindObserve, Time: 1, Stream: 8, Value: 3},
		{Kind: KindObserve, Time: 2, Stream: 7, Value: 51},
		{Kind: KindDecision, Time: 2, Stream: 7, Evaluated: true,
			SampleMean: 50.5, Target: 7, Level: 1, Triggered: true, TriggerID: 0xF1},
	}
	c, ok := TraceCausality(recs, 0xF1, 8)
	if !ok {
		t.Fatal("TraceCausality did not find id 0xF1")
	}
	if c.Stream != 7 || c.Class != "web" {
		t.Errorf("stream=%d class=%q, want stream 7 class web", c.Stream, c.Class)
	}
	// Only stream 7's observations belong to the chain.
	if len(c.Observations) != 2 || c.Observations[0].Value != 50 || c.Observations[1].Value != 51 {
		t.Errorf("observations: %+v", c.Observations)
	}
	if len(c.Actions) != 0 {
		t.Errorf("unexpected actions: %+v", c.Actions)
	}
}

func TestTraceCausalityAbsent(t *testing.T) {
	if _, ok := TraceCausality(causalityFixture(), 0xDEAD, 3); ok {
		t.Error("found a chain for an id no record carries")
	}
	// Id 0 is the pre-trigger-id era marker, never a valid chain.
	if _, ok := TraceCausality(analysisFixture(), 0, 3); ok {
		t.Error("found a chain for id 0")
	}
}

// streamDec is dec on a fleet stream.
func streamDec(stream uint64, t, mean float64, level int, triggered bool) Record {
	r := dec(t, mean, 5, level, triggered, false)
	r.Stream = stream
	return r
}

// TestAnalyzeFleetPhasesPerStream interleaves two streams: each
// trigger's window, first exceedance and dwell must describe only the
// stream that triggered, and one stream's trigger must not end the
// other's phase.
func TestAnalyzeFleetPhasesPerStream(t *testing.T) {
	records := []Record{
		{Kind: KindStreamOpen, Stream: 1, Class: "web"},
		{Kind: KindStreamOpen, Stream: 2, Class: "db"},
		streamDec(1, 1, 9, 1, false), // stream 1 exceeds first
		streamDec(2, 2, 4, 0, false),
		streamDec(2, 3, 8, 1, false), // stream 2 exceeds
		streamDec(1, 4, 9, 2, true),  // stream 1 triggers
		streamDec(2, 6, 9, 2, true),  // stream 2 triggers
	}
	a := Analyze(Meta{}, FormatBinary, records, 8)
	if a.Decisions != 5 || a.Triggers != 2 || len(a.Events) != 2 {
		t.Fatalf("decisions=%d triggers=%d events=%d, want 5/2/2", a.Decisions, a.Triggers, len(a.Events))
	}
	for i, want := range []struct {
		stream      uint64
		window      int
		firstExc    float64
		dwellLevel0 float64
	}{{1, 2, 1, 0}, {2, 3, 3, 1}} {
		ev := a.Events[i]
		if ev.Stream != want.stream || len(ev.Window) != want.window || ev.FirstExceedance != want.firstExc {
			t.Errorf("trigger %d: stream %d, %d-record window, first exceedance %v; want %d, %d, %v",
				i+1, ev.Stream, len(ev.Window), ev.FirstExceedance, want.stream, want.window, want.firstExc)
		}
		for _, r := range ev.Window {
			if r.Stream != ev.Stream {
				t.Errorf("trigger %d window holds stream %d's decision at t=%v", i+1, r.Stream, r.Time)
			}
		}
		if len(ev.Dwell) == 0 || ev.Dwell[0] != want.dwellLevel0 {
			t.Errorf("trigger %d dwell %v, want %v s at level 0", i+1, ev.Dwell, want.dwellLevel0)
		}
	}
}

// TestDiffComparesStreams pins that a diff of fleet journals sees their
// decisions, and that the same decision on another stream diverges.
func TestDiffComparesStreams(t *testing.T) {
	a := []Record{streamDec(1, 1, 9, 1, false), streamDec(2, 1, 9, 1, false)}
	b := []Record{streamDec(1, 1, 9, 1, false), streamDec(3, 1, 9, 1, false)}
	d := Diff(Meta{}, a, Meta{}, b, 4)
	if d.A.Decisions != 2 || d.CommonDecisions != 1 {
		t.Errorf("decisions=%d common=%d, want 2/1", d.A.Decisions, d.CommonDecisions)
	}
	if d.Divergence == nil || d.Divergence.Ordinal != 1 || d.Divergence.B.Stream != 3 {
		t.Errorf("divergence %+v, want ordinal 1 on stream 2 vs 3", d.Divergence)
	}
}
