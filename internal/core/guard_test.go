package core

import (
	"math"
	"testing"
	"time"
)

func TestCooldownZeroNeverSuppresses(t *testing.T) {
	c := NewCooldown(0)
	c.Open(100)
	if c.Active(100) || c.Active(101) {
		t.Fatal("zero-window cooldown must never be active")
	}
}

func TestCooldownWindow(t *testing.T) {
	c := NewCooldown(10 * time.Nanosecond)
	if c.Active(5) {
		t.Fatal("cooldown active before any trigger")
	}
	c.Open(100)
	if !c.Active(100) || !c.Active(109) {
		t.Fatal("cooldown must cover [open, open+window)")
	}
	if c.Active(110) {
		t.Fatal("cooldown active at exactly the window boundary; a trigger exactly at expiry must deliver")
	}
	c.Reset()
	if c.Active(105) {
		t.Fatal("cooldown survived Reset")
	}
}

func TestCooldownNegativeWindowDisabled(t *testing.T) {
	c := NewCooldown(-time.Second)
	c.Open(0)
	if c.Active(1) {
		t.Fatal("negative window must behave as disabled")
	}
}

func TestWatchdogDisabled(t *testing.T) {
	var w Watchdog // zero value: disabled
	if w.Enabled() {
		t.Fatal("zero watchdog reports enabled")
	}
	if tripped, _ := w.Check(1 << 40); tripped {
		t.Fatal("disabled watchdog tripped")
	}
}

func TestWatchdogTripsOnceAndClears(t *testing.T) {
	w := NewWatchdog(10 * time.Nanosecond)
	// First check arms instead of tripping.
	if tripped, _ := w.Check(0); tripped || w.Stalled() {
		t.Fatal("first check must arm, not trip")
	}
	if tripped, _ := w.Check(10); tripped {
		t.Fatal("tripped at silence == max silence (boundary is exclusive)")
	}
	tripped, silence := w.Check(11)
	if !tripped || silence != 11 {
		t.Fatalf("want trip with silence 11, got tripped=%v silence=%v", tripped, silence)
	}
	if tripped, _ := w.Check(20); tripped {
		t.Fatal("latched stall tripped twice")
	}
	if !w.Stalled() {
		t.Fatal("stall did not latch")
	}
	if cleared := w.Feed(21); !cleared {
		t.Fatal("feed did not report clearing the latched stall")
	}
	if w.Stalled() {
		t.Fatal("stall survived a feed")
	}
	if cleared := w.Feed(22); cleared {
		t.Fatal("feed reported clearing when nothing was latched")
	}
}

func TestHygieneStateRejectAndClamp(t *testing.T) {
	var s HygieneState

	// Reject before any admitted value: nothing to clamp to either.
	if _, ok, intercepted := s.Admit(HygieneReject, math.NaN()); ok || !intercepted {
		t.Fatalf("reject of NaN: ok=%v intercepted=%v", ok, intercepted)
	}
	if _, ok, intercepted := s.Admit(HygieneClamp, math.Inf(1)); ok || !intercepted {
		t.Fatalf("clamp with no prior value must reject: ok=%v intercepted=%v", ok, intercepted)
	}

	// A finite value passes and becomes the clamp substitute.
	if v, ok, intercepted := s.Admit(HygieneClamp, 3.5); !ok || intercepted || v != 3.5 {
		t.Fatalf("finite admit: v=%v ok=%v intercepted=%v", v, ok, intercepted)
	}
	if v, ok, intercepted := s.Admit(HygieneClamp, math.NaN()); !ok || !intercepted || v != 3.5 {
		t.Fatalf("clamp substitution: v=%v ok=%v intercepted=%v", v, ok, intercepted)
	}

	// HygieneOff passes everything through uncounted.
	if v, ok, intercepted := s.Admit(HygieneOff, math.Inf(-1)); !ok || intercepted || !math.IsInf(v, -1) {
		t.Fatalf("off must pass -Inf through: v=%v ok=%v intercepted=%v", v, ok, intercepted)
	}
}

func TestAcceleratedSampleSizeMatchesPaper(t *testing.T) {
	// The integer form must round exactly; norig=6, K=5, N=4 is the case
	// the floating-point form gets wrong (1 instead of 2).
	if got := acceleratedSampleSize(6, 5, 4); got != 2 {
		t.Fatalf("acceleratedSampleSize(6,5,4) = %d, want 2", got)
	}
	if got := acceleratedSampleSize(6, 5, 0); got != 6 {
		t.Fatalf("level 0 must keep n_orig: got %d", got)
	}
	// Never below 1.
	if got := acceleratedSampleSize(1, 3, 2); got != 1 {
		t.Fatalf("n stays at 1: got %d", got)
	}
}

func TestBucketStepMatchesState(t *testing.T) {
	// The kernel's bucket step on a State and the pseudo-code
	// transcription of the oracle must be the same transition relation;
	// the kernel fuzz and oracle tests reach the rules only through
	// sample means, so pin the bare step too.
	p := bucketPlan(t, 3, 2)
	s := p.Start()
	o := newPseudoDetector("sraa", 1, 3, 2, 0, testBaseline)
	seq := []bool{true, true, true, false, true, true, true, true, true, true, true, true}
	for i, exceeded := range seq {
		ev := p.step(&s, exceeded)
		trig := o.bucket(exceeded)
		if s.Fill() != o.d || s.Level() != o.N || (ev == bucketTrigger) != trig {
			t.Fatalf("step %d diverged: kernel (%d,%d,%v) vs pseudo-code (%d,%d,%v)",
				i, s.Fill(), s.Level(), ev, o.d, o.N, trig)
		}
	}
}

// stubRebaser triggers on observations above 10 and commits a
// rebaseline, to a baseline at the observed value, on each 7.
type stubRebaser struct {
	n    uint64
	base Baseline
}

func (d *stubRebaser) Observe(x float64) Decision {
	if x == 7 {
		d.n++
		d.base = Baseline{Mean: x, StdDev: 1}
	}
	return Decision{Evaluated: true, Triggered: x > 10, SampleMean: x}
}
func (d *stubRebaser) Reset()                    {}
func (d *stubRebaser) Rebaselines() uint64       { return d.n }
func (d *stubRebaser) CurrentBaseline() Baseline { return d.base }

// TestFeedStepCarriesNothingOver pins that the Step a Feed reuses
// describes the latest observation alone: a rejected observation after
// a trigger reports no decision, and a rebaseline is reported on the
// step that committed it only.
func TestFeedStepCarriesNothingOver(t *testing.T) {
	f := NewFeed(&stubRebaser{})
	for i, tc := range []struct {
		x                            float64
		admitted, triggered, rebased bool
	}{
		{20, true, true, false},
		{math.NaN(), false, false, false},
		{7, true, false, true},
		{5, true, false, false},
	} {
		s := f.Observe(HygieneReject, tc.x)
		if s.Admitted != tc.admitted || s.Decision.Triggered != tc.triggered || s.Rebased != tc.rebased {
			t.Errorf("step %d (x=%v): admitted=%v triggered=%v rebased=%v, want %v %v %v",
				i, tc.x, s.Admitted, s.Decision.Triggered, s.Rebased, tc.admitted, tc.triggered, tc.rebased)
		}
		if !tc.admitted && s.Decision != (Decision{}) {
			t.Errorf("step %d: rejected observation carries decision %+v", i, s.Decision)
		}
		if tc.rebased && s.Baseline != (Baseline{Mean: 7, StdDev: 1}) {
			t.Errorf("step %d: committed baseline %+v, want {7 1}", i, s.Baseline)
		}
	}
}
