package core

import "fmt"

// SARAAConfig parameterizes the sampling-acceleration rejuvenation
// algorithm with averaging (paper Fig. 7).
type SARAAConfig struct {
	// InitialSampleSize is n_orig, the sample size used while the first
	// bucket is current. Deeper buckets use smaller samples.
	InitialSampleSize int
	// Buckets is K, the number of buckets.
	Buckets int
	// Depth is D, the bucket depth.
	Depth int
	// Baseline is the normal-behaviour (mean, standard deviation).
	Baseline Baseline
}

// Validate reports whether the configuration is usable.
func (c SARAAConfig) Validate() error {
	if err := checkPlanInt("SARAA initial sample size", c.InitialSampleSize); err != nil {
		return err
	}
	if err := validateBuckets(c.Buckets, c.Depth); err != nil {
		return err
	}
	return c.Baseline.Validate()
}

// Plan returns the kernel plan of a validated configuration.
func (c SARAAConfig) Plan() Plan {
	return Plan{k: int32(c.Buckets), depth: int32(c.Depth), n0: int32(c.InitialSampleSize), accel: true}
}

// SARAA is the sampling-acceleration rejuvenation algorithm with
// averaging. Unlike SRAA it follows the hypothesis-testing paradigm:
// targets are mu + N*sigma/sqrt(n), the standard deviation of the sample
// mean, and the sample size shrinks linearly as degradation deepens —
// n = floor(1 + (n_orig-1)*(1 - N/K)) — so confirmation of a developing
// degradation arrives faster.
type SARAA struct{ blockDetector }

// NewSARAA returns a SARAA detector for the given configuration.
func NewSARAA(cfg SARAAConfig) (*SARAA, error) {
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("core: invalid SARAA config: %w", err)
	}
	return &SARAA{newBlockDetector(cfg.Plan(), cfg.Baseline)}, nil
}

// Config returns the configuration the detector was built with.
func (s *SARAA) Config() SARAAConfig {
	return SARAAConfig{InitialSampleSize: int(s.plan.n0), Buckets: int(s.plan.k), Depth: int(s.plan.depth), Baseline: s.base}
}

// SampleSize returns the sample size currently in use, which depends on
// the current bucket: floor(1 + (n_orig-1)*(1 - N/K)).
func (s *SARAA) SampleSize() int { return s.st.SampleSize() }
