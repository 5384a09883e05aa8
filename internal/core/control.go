package core

import (
	"fmt"
	"math"
)

// The detectors in this file are not part of the paper; they are
// classical change-detection charts included as comparators for the
// ablation experiments, positioning SRAA/SARAA/CLTA against standard
// statistical process control.

// Shewhart is the individuals control chart: a single observation above
// mu + L*sigma triggers. It is the "use an upper quantile of the RT
// itself" strawman the paper rejects as non-robust to short-term
// deviations (Section 4.1).
type Shewhart struct {
	baseline Baseline
	limit    float64 // L, in standard deviations
}

// NewShewhart returns a Shewhart chart with control limit mu + limit*sigma.
func NewShewhart(limit float64, baseline Baseline) (*Shewhart, error) {
	if err := baseline.Validate(); err != nil {
		return nil, err
	}
	if limit <= 0 || math.IsNaN(limit) || math.IsInf(limit, 0) {
		return nil, fmt.Errorf("core: Shewhart limit must be positive and finite, got %v", limit)
	}
	return &Shewhart{baseline: baseline, limit: limit}, nil
}

// Target returns the control limit.
func (s *Shewhart) Target() float64 {
	return s.baseline.Mean + s.limit*s.baseline.StdDev
}

// Observe feeds one observation.
//
//lint:hotpath
func (s *Shewhart) Observe(x float64) Decision {
	target := s.Target()
	return Decision{Triggered: x > target, Evaluated: true, SampleMean: x, Target: target}
}

// Reset is a no-op: the chart is memoryless.
func (s *Shewhart) Reset() {}

func (s *Shewhart) rebase(base Baseline) { s.baseline = base }

// EWMA is the exponentially weighted moving-average chart: the smoothed
// statistic z = (1-w)z + w*x triggers above its asymptotic control limit
// mu + L*sigma*sqrt(w/(2-w)).
type EWMA struct {
	baseline Baseline
	weight   float64 // smoothing weight w in (0, 1]
	limit    float64 // L, in standard deviations of z
	z        float64
}

// NewEWMA returns an EWMA chart with the given smoothing weight and
// control limit multiplier.
func NewEWMA(weight, limit float64, baseline Baseline) (*EWMA, error) {
	if err := baseline.Validate(); err != nil {
		return nil, err
	}
	if weight <= 0 || weight > 1 || math.IsNaN(weight) {
		return nil, fmt.Errorf("core: EWMA weight must be in (0,1], got %v", weight)
	}
	if limit <= 0 || math.IsNaN(limit) || math.IsInf(limit, 0) {
		return nil, fmt.Errorf("core: EWMA limit must be positive and finite, got %v", limit)
	}
	return &EWMA{baseline: baseline, weight: weight, limit: limit, z: baseline.Mean}, nil
}

// Target returns the asymptotic upper control limit.
func (e *EWMA) Target() float64 {
	return e.baseline.Mean +
		e.limit*e.baseline.StdDev*math.Sqrt(e.weight/(2-e.weight))
}

// Statistic returns the current smoothed value.
func (e *EWMA) Statistic() float64 { return e.z }

// Observe feeds one observation.
//
//lint:hotpath
func (e *EWMA) Observe(x float64) Decision {
	e.z = (1-e.weight)*e.z + e.weight*x
	target := e.Target()
	if e.z > target {
		z := e.z
		e.Reset()
		return Decision{Triggered: true, Evaluated: true, SampleMean: z, Target: target}
	}
	return Decision{Evaluated: true, SampleMean: e.z, Target: target}
}

// Reset restores the statistic to the baseline mean.
func (e *EWMA) Reset() { e.z = e.baseline.Mean }

func (e *EWMA) rebase(base Baseline) { e.baseline, e.z = base, base.Mean }

// CUSUM is the one-sided (upper) cumulative-sum chart on standardized
// observations: S = max(0, S + (x-mu)/sigma - k) triggers above h.
type CUSUM struct {
	baseline  Baseline
	slack     float64 // k, the allowance in standard deviations
	threshold float64 // h, the decision interval in standard deviations
	s         float64
}

// NewCUSUM returns an upper CUSUM with allowance slack (typically half
// the shift to detect, in sigmas) and decision interval threshold
// (typically 4–5).
func NewCUSUM(slack, threshold float64, baseline Baseline) (*CUSUM, error) {
	if err := baseline.Validate(); err != nil {
		return nil, err
	}
	if slack < 0 || math.IsNaN(slack) || math.IsInf(slack, 0) {
		return nil, fmt.Errorf("core: CUSUM slack must be non-negative and finite, got %v", slack)
	}
	if threshold <= 0 || math.IsNaN(threshold) || math.IsInf(threshold, 0) {
		return nil, fmt.Errorf("core: CUSUM threshold must be positive and finite, got %v", threshold)
	}
	return &CUSUM{baseline: baseline, slack: slack, threshold: threshold}, nil
}

// Statistic returns the current cumulative sum (in standard deviations).
func (c *CUSUM) Statistic() float64 { return c.s }

// Observe feeds one observation.
//
//lint:hotpath
func (c *CUSUM) Observe(x float64) Decision {
	z := (x - c.baseline.Mean) / c.baseline.StdDev
	c.s = math.Max(0, c.s+z-c.slack)
	if c.s > c.threshold {
		s := c.s
		c.Reset()
		return Decision{Triggered: true, Evaluated: true, SampleMean: s, Target: c.threshold}
	}
	return Decision{Evaluated: true, SampleMean: c.s, Target: c.threshold}
}

// Reset zeroes the cumulative sum.
func (c *CUSUM) Reset() { c.s = 0 }

func (c *CUSUM) rebase(base Baseline) { c.baseline, c.s = base, 0 }
