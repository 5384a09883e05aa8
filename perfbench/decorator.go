package main

import (
	"time"

	"rejuv/internal/core"
)

// observeTally accumulates a timing decorator's counts: every call is
// counted, one in timeEvery is timed, so the clock reads cost little
// and the mean stays unbiased (calls are periodic, not data-driven).
type observeTally struct {
	calls   uint64
	timed   uint64
	timedNs int64
	// opCalls counts calls since the owner last zeroed it; the call
	// numbered flipAt (1-based) has its decision flipped, 0 for none.
	opCalls uint64
	flipAt  uint64
}

// timeEvery is the sampling period of the timing decorator.
const timeEvery = 16

// clockPairNs is the measured cost of two back-to-back clock reads,
// subtracted from each timed call.
var clockPairNs = measureClockPair()

func measureClockPair() float64 {
	const n = 4096
	var best time.Duration = 1 << 62
	for r := 0; r < 5; r++ {
		var sum time.Duration
		for i := 0; i < n; i++ {
			t0 := time.Now()
			sum += time.Since(t0)
		}
		if sum < best {
			best = sum
		}
	}
	return float64(best.Nanoseconds()) / n
}

// meanNs returns the mean Observe duration in ns, net of clock cost.
func (t *observeTally) meanNs() float64 {
	if t.timed == 0 {
		return 0
	}
	v := float64(t.timedNs)/float64(t.timed) - clockPairNs
	if v < 0 {
		return 0
	}
	return v
}

// timedDetector is the timing decorator around a core.Detector. It
// forwards core.Instrumented and core.Rebaseliner through the variants
// built by decorate, so callers that type-assert the detector take the
// same code paths as with the bare one.
type timedDetector struct {
	inner core.Detector
	tally *observeTally
}

// Observe forwards to the wrapped detector, timing one call in
// timeEvery.
func (d *timedDetector) Observe(x float64) core.Decision {
	t := d.tally
	t.calls++
	t.opCalls++
	var dec core.Decision
	if t.calls%timeEvery == 0 {
		t0 := time.Now()
		dec = d.inner.Observe(x)
		t.timedNs += int64(time.Since(t0))
		t.timed++
	} else {
		dec = d.inner.Observe(x)
	}
	if t.opCalls == t.flipAt {
		dec.Triggered = !dec.Triggered
	}
	return dec
}

// Reset forwards to the wrapped detector.
func (d *timedDetector) Reset() { d.inner.Reset() }

type timedInstrumented struct{ *timedDetector }

func (d timedInstrumented) Internals() core.Internals {
	return d.inner.(core.Instrumented).Internals()
}

type timedRebaseliner struct{ *timedDetector }

func (d timedRebaseliner) Rebaselines() uint64 { return d.inner.(core.Rebaseliner).Rebaselines() }

func (d timedRebaseliner) CurrentBaseline() core.Baseline {
	return d.inner.(core.Rebaseliner).CurrentBaseline()
}

type timedBoth struct{ *timedDetector }

func (d timedBoth) Internals() core.Internals { return d.inner.(core.Instrumented).Internals() }

func (d timedBoth) Rebaselines() uint64 { return d.inner.(core.Rebaseliner).Rebaselines() }

func (d timedBoth) CurrentBaseline() core.Baseline {
	return d.inner.(core.Rebaseliner).CurrentBaseline()
}

// decorate wraps det in the timing decorator, keeping exactly the
// optional interfaces det implements. A nil detector stays nil.
func decorate(det core.Detector, tally *observeTally) core.Detector {
	if det == nil {
		return nil
	}
	base := &timedDetector{inner: det, tally: tally}
	_, instr := det.(core.Instrumented)
	_, reb := det.(core.Rebaseliner)
	switch {
	case instr && reb:
		return timedBoth{base}
	case instr:
		return timedInstrumented{base}
	case reb:
		return timedRebaseliner{base}
	}
	return base
}
