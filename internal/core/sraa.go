package core

import "fmt"

// SRAAConfig parameterizes the static rejuvenation algorithm with
// averaging (paper Fig. 6).
type SRAAConfig struct {
	// SampleSize is n, the number of observations averaged per step.
	SampleSize int
	// Buckets is K, the number of buckets; rejuvenation fires when the
	// K-th bucket overflows, i.e. after evidence of a shift by K-1
	// standard deviations.
	Buckets int
	// Depth is D, the bucket depth.
	Depth int
	// Baseline is the (mean, standard deviation) of the metric under
	// normal behaviour, from the service level agreement.
	Baseline Baseline
}

// Validate reports whether the configuration is usable.
func (c SRAAConfig) Validate() error {
	if err := checkPlanInt("SRAA sample size n", c.SampleSize); err != nil {
		return err
	}
	if err := validateBuckets(c.Buckets, c.Depth); err != nil {
		return err
	}
	return c.Baseline.Validate()
}

// Plan returns the kernel plan of a validated configuration.
func (c SRAAConfig) Plan() Plan {
	return Plan{k: int32(c.Buckets), depth: int32(c.Depth), n0: int32(c.SampleSize)}
}

// SRAA is the static rejuvenation algorithm with averaging: it averages
// blocks of n observations and runs the ball-and-bucket counter against
// targets mu + N*sigma. Because the targets do not shrink with n, SRAA
// "verifies" that the metric's distribution has shifted right by K-1
// whole standard deviations before triggering.
type SRAA struct{ blockDetector }

// NewSRAA returns an SRAA detector for the given configuration.
func NewSRAA(cfg SRAAConfig) (*SRAA, error) {
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("core: invalid SRAA config: %w", err)
	}
	return &SRAA{newBlockDetector(cfg.Plan(), cfg.Baseline)}, nil
}

// Config returns the configuration the detector was built with.
func (s *SRAA) Config() SRAAConfig {
	return SRAAConfig{SampleSize: int(s.plan.n0), Buckets: int(s.plan.k), Depth: int(s.plan.depth), Baseline: s.base}
}

// NewStatic returns the static rejuvenation algorithm of the paper's
// earlier work ([1]): the bucket counter applied to raw observations,
// which is exactly SRAA with sample size one.
func NewStatic(buckets, depth int, baseline Baseline) (*SRAA, error) {
	return NewSRAA(SRAAConfig{
		SampleSize: 1,
		Buckets:    buckets,
		Depth:      depth,
		Baseline:   baseline,
	})
}
