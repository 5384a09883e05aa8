package core

// Internals is a point-in-time snapshot of a detector's internal state,
// published for observability: dashboards graph bucket occupancy and
// sample sizes, and the trace log records them alongside every decision
// so a fired trigger can be explained after the fact. All fields are
// copies; reading them never perturbs the detector.
type Internals struct {
	// Level is the current bucket pointer N, 0 for detectors without
	// buckets.
	Level int
	// Buckets is the configured number of buckets K, 0 for detectors
	// without buckets.
	Buckets int
	// Fill is the current ball count d of the current bucket, 0 for
	// detectors without buckets.
	Fill int
	// Depth is the configured bucket depth D, 0 for detectors without
	// buckets.
	Depth int
	// SampleSize is the number of observations per sample currently in
	// effect (n; for SARAA it shrinks as degradation deepens). It is 1
	// for the per-observation charts and 0 while Adaptive is still in
	// warmup.
	SampleSize int
	// SampleFill is the number of observations accumulated toward the
	// current (incomplete) sample.
	SampleFill int
	// Target is the threshold the next completed sample mean is compared
	// against; for EWMA and CUSUM it is the control limit the chart
	// statistic is compared against.
	Target float64
	// Statistic is the current chart statistic where one exists (EWMA's
	// smoothed value, CUSUM's cumulative sum); 0 for the bucket and CLTA
	// detectors, whose per-sample state is SampleFill.
	Statistic float64
}

// MeanDistance returns how far a completed sample mean sat from the
// trigger threshold, in the units of the metric: positive values exceed
// the target. It is a convenience for gauges fed from decisions.
func (in Internals) MeanDistance(sampleMean float64) float64 {
	return sampleMean - in.Target
}

// Instrumented is optionally implemented by detectors that can expose a
// snapshot of their internal state. All detectors in this package
// implement it; custom Detector implementations may not, so callers
// must type-assert.
//
// Internals must be called from the goroutine that owns the detector
// (the public Monitor does this under its lock).
type Instrumented interface {
	// Internals returns the current internal-state snapshot.
	Internals() Internals
}

// Compile-time checks that every detector in this package is
// instrumented.
var (
	_ Instrumented = (*SRAA)(nil)
	_ Instrumented = (*SARAA)(nil)
	_ Instrumented = (*CLTA)(nil)
	_ Instrumented = (*Shewhart)(nil)
	_ Instrumented = (*EWMA)(nil)
	_ Instrumented = (*CUSUM)(nil)
	_ Instrumented = (*Adaptive)(nil)
	_ Instrumented = (*Rebase)(nil)
)

// Internals returns the control limit of the memoryless Shewhart chart.
func (s *Shewhart) Internals() Internals {
	return Internals{SampleSize: 1, Target: s.Target()}
}

// Internals returns the smoothed statistic and control limit of the
// EWMA chart.
func (e *EWMA) Internals() Internals {
	return Internals{SampleSize: 1, Target: e.Target(), Statistic: e.z}
}

// Internals returns the cumulative sum and decision interval of the
// CUSUM chart, both in standard deviations.
func (c *CUSUM) Internals() Internals {
	return Internals{SampleSize: 1, Target: c.threshold, Statistic: c.s}
}

// Internals delegates to the inner detector once warmup has completed.
// During warmup it reports SampleFill as the number of warmup
// observations accumulated so far and SampleSize 0, signalling that no
// detector is active yet.
func (a *Adaptive) Internals() Internals {
	if a.inner == nil {
		return Internals{SampleFill: int(a.acc.N())}
	}
	if in, ok := a.inner.(Instrumented); ok {
		return in.Internals()
	}
	return Internals{}
}
