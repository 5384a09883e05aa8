package core

import (
	"fmt"
	"math"

	"rejuv/internal/stats"
)

// Adaptive wraps a detector factory and estimates the baseline online:
// the first Warmup observations are treated as normal behaviour, their
// sample mean and standard deviation become the baseline, and the inner
// detector is built from it. This implements the paper's stated future
// work of "statistical estimation techniques to determine optimal
// algorithm parameters in real-time" in its simplest form.
//
// During warmup no rejuvenation is ever triggered, so the warmup window
// must be chosen so the system is healthy while it runs.
type Adaptive struct {
	warmup int
	build  func(Baseline) (Detector, error)
	acc    stats.Welford
	inner  Detector // nil until warmup completes
	base   Baseline
}

// NewAdaptive returns an adaptive wrapper that learns the baseline from
// the first warmup observations, then builds the inner detector with it.
// warmup must be at least 2 so a standard deviation exists.
func NewAdaptive(warmup int, build func(Baseline) (Detector, error)) (*Adaptive, error) {
	if warmup < 2 {
		return nil, fmt.Errorf("core: adaptive warmup must be at least 2 observations, got %d", warmup)
	}
	if build == nil {
		return nil, fmt.Errorf("core: adaptive detector factory must not be nil")
	}
	return &Adaptive{warmup: warmup, build: build}, nil
}

// Learned reports whether warmup has completed and returns the learned
// baseline (zero until then).
func (a *Adaptive) Learned() (Baseline, bool) {
	return a.base, a.inner != nil
}

// Observe feeds one observation. During warmup it only accumulates;
// afterwards it delegates to the inner detector.
//
//lint:hotpath
func (a *Adaptive) Observe(x float64) Decision {
	if a.inner == nil {
		a.acc.Add(x)
		if a.acc.N() < int64(a.warmup) {
			return Decision{}
		}
		a.base = Baseline{Mean: a.acc.Mean(), StdDev: a.acc.StdDev()}
		if !(a.base.StdDev > 0) || math.IsInf(a.base.StdDev, 0) ||
			math.IsNaN(a.base.Mean) || math.IsInf(a.base.Mean, 0) {
			// A constant warmup series gives a degenerate baseline, and a
			// non-finite observation (possible when the monitor's hygiene
			// policy is off) poisons the accumulator; restart learning
			// rather than divide by zero or panic the factory.
			a.base = Baseline{}
			a.acc.Reset()
			return Decision{}
		}
		inner, err := a.build(a.base)
		if err != nil {
			// A factory that rejects a valid learned baseline is a
			// programming error in the caller.
			//lint:allow hotpath formatting a panic on the dying path costs nothing in steady state
			panic(fmt.Sprintf("core: adaptive factory failed: %v", err))
		}
		a.inner = inner
		return Decision{}
	}
	return a.inner.Observe(x)
}

// Reset clears the inner detector state but keeps the learned baseline:
// rejuvenation restores capacity, it does not invalidate the SLA. Use
// Relearn to also discard the baseline.
func (a *Adaptive) Reset() {
	if a.inner != nil {
		a.inner.Reset()
	}
}

// Relearn discards both the detector and the learned baseline, returning
// to the warmup phase.
func (a *Adaptive) Relearn() {
	a.inner = nil
	a.base = Baseline{}
	a.acc.Reset()
}

// rebase ignores base: an adaptive detector learns its own baseline, so
// a rebaseline sends it back to warmup.
func (a *Adaptive) rebase(Baseline) { a.Relearn() }
