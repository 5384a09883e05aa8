package core

import (
	"fmt"
	"math"
)

// CLTAConfig parameterizes the central-limit-theorem algorithm (paper
// Fig. 8).
type CLTAConfig struct {
	// SampleSize is n; it should be large enough for the normal
	// approximation of the sample mean to hold (the paper uses 30, and
	// shows 15 is already workable for the M/M/16 response time).
	SampleSize int
	// Quantile is N, the standard-normal quantile defining the target
	// mu + N*sigma/sqrt(n). The paper uses 1.96, the 97.5% quantile;
	// the acceptable false-alarm probability picks it. It must be
	// positive: a non-positive quantile would trigger on normal
	// behaviour about half the time.
	Quantile float64
	// Baseline is the normal-behaviour (mean, standard deviation).
	Baseline Baseline
}

// Validate reports whether the configuration is usable.
func (c CLTAConfig) Validate() error {
	if err := checkPlanInt("CLTA sample size", c.SampleSize); err != nil {
		return err
	}
	if c.Quantile <= 0 || math.IsNaN(c.Quantile) || math.IsInf(c.Quantile, 0) {
		return fmt.Errorf("core: CLTA quantile must be positive and finite, got %v", c.Quantile)
	}
	return c.Baseline.Validate()
}

// Plan returns the kernel plan of a validated configuration.
func (c CLTAConfig) Plan() Plan {
	return Plan{n0: int32(c.SampleSize), q: c.Quantile}
}

// CLTA is the central-limit-theorem rejuvenation algorithm: a single
// sample mean above mu + N*sigma/sqrt(n) triggers immediately. The
// number of buckets and the bucket depth are both implicitly one.
type CLTA struct{ blockDetector }

// NewCLTA returns a CLTA detector for the given configuration.
func NewCLTA(cfg CLTAConfig) (*CLTA, error) {
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("core: invalid CLTA config: %w", err)
	}
	return &CLTA{newBlockDetector(cfg.Plan(), cfg.Baseline)}, nil
}

// Config returns the configuration the detector was built with.
func (c *CLTA) Config() CLTAConfig {
	return CLTAConfig{SampleSize: int(c.plan.n0), Quantile: c.plan.q, Baseline: c.base}
}

// FalseAlarmProbability returns the nominal per-sample false-alarm
// probability under an exact normal sample mean: 1 - Phi(N). The true
// probability is larger when the metric's distribution is skewed; the
// paper quantifies the inflation for the M/M/16 response time (3.37%
// instead of 2.5% at n=30).
func (c *CLTA) FalseAlarmProbability() float64 {
	return 1 - 0.5*math.Erfc(-c.plan.q/math.Sqrt2)
}
