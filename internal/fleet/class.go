package fleet

import (
	"fmt"
	"math"

	"rejuv/internal/core"
)

// Family selects which of the paper's detector algorithms a stream
// class runs. The fleet engine implements each family directly over
// struct-of-arrays state; the transition rules are shared with the
// pointer-based detectors in internal/core (BucketStep,
// AcceleratedSampleSize), so the two implementations cannot diverge.
type Family int

// Detector families a stream class may use.
const (
	// FamilySRAA is the static rejuvenation algorithm with averaging
	// (paper Fig. 6): block means against targets mu + N*sigma.
	FamilySRAA Family = iota
	// FamilySARAA is the sampling-acceleration rejuvenation algorithm
	// with averaging (paper Fig. 7): targets mu + N*sigma/sqrt(n) with
	// the sample size shrinking as degradation deepens.
	FamilySARAA
	// FamilyCLTA is the central-limit-theorem algorithm (paper Fig. 8):
	// a single block mean above mu + q*sigma/sqrt(n) triggers.
	FamilyCLTA
)

// String returns the family's class-spec spelling.
func (f Family) String() string {
	switch f {
	case FamilySRAA:
		return "sraa"
	case FamilySARAA:
		return "saraa"
	case FamilyCLTA:
		return "clta"
	}
	return fmt.Sprintf("Family(%d)", int(f))
}

// ClassConfig declares one stream class: a named detector configuration
// shared by every stream opened under it. Classes are fixed at engine
// construction, which is what keeps the per-stream state small — a
// stream stores a class index and its mutable detector state, never a
// detector object — and the metrics label space bounded (class name,
// never stream id).
type ClassConfig struct {
	// Name identifies the class; it labels metrics series and is
	// journaled with every KindStreamOpen record, so it must be unique
	// within the engine and should stay low-cardinality and stable.
	Name string
	// Family selects the detector algorithm.
	Family Family
	// SampleSize is the observations-per-block n (the initial n_orig for
	// FamilySARAA, whose sample size shrinks as degradation deepens).
	SampleSize int
	// Buckets is K, the number of buckets (FamilySRAA, FamilySARAA).
	Buckets int
	// Depth is D, the bucket depth (FamilySRAA, FamilySARAA).
	Depth int
	// Quantile is the standard-normal quantile q of the CLTA target
	// mu + q*sigma/sqrt(n) (FamilyCLTA only).
	Quantile float64
	// Baseline is the normal-behaviour (mean, standard deviation) of the
	// monitored metric.
	Baseline core.Baseline
	// Shift, when non-nil, layers online baseline re-estimation under
	// every stream of the class: workload shifts rebaseline the stream's
	// detector state (targets and sample sizes recomputed from the
	// re-estimated mean and deviation, journaled as stream-tagged
	// KindRebaseline records) while software aging triggers as usual.
	// The per-stream transition rule is core.ShiftState, shared verbatim
	// with the Rebase wrapper, so replay against Rebase-wrapped
	// reference detectors stays byte-identical.
	Shift *core.ShiftConfig
}

// Validate reports whether the class is usable, by validating the
// corresponding core detector configuration.
func (c ClassConfig) Validate() error {
	if c.Name == "" {
		return fmt.Errorf("fleet: class needs a name")
	}
	if c.Shift != nil {
		if err := c.Shift.WithDefaults().Validate(); err != nil {
			return fmt.Errorf("fleet: class %q shift layer: %w", c.Name, err)
		}
	}
	switch c.Family {
	case FamilySRAA:
		return core.SRAAConfig{
			SampleSize: c.SampleSize, Buckets: c.Buckets, Depth: c.Depth,
			Baseline: c.Baseline,
		}.Validate()
	case FamilySARAA:
		return core.SARAAConfig{
			InitialSampleSize: c.SampleSize, Buckets: c.Buckets, Depth: c.Depth,
			Baseline: c.Baseline,
		}.Validate()
	case FamilyCLTA:
		return core.CLTAConfig{
			SampleSize: c.SampleSize, Quantile: c.Quantile,
			Baseline: c.Baseline,
		}.Validate()
	}
	return fmt.Errorf("fleet: class %q has unknown family %d", c.Name, int(c.Family))
}

// Detector constructs the reference pointer-based detector for this
// class (Rebase-wrapped when the class has a Shift layer). Fleet replay
// verification uses it as the factory: feeding a stream's journaled
// observations through this detector must reproduce the engine's
// journaled decisions byte for byte, which is the proof that the
// struct-of-arrays fast path implements the same algorithm.
func (c ClassConfig) Detector() (core.Detector, error) {
	build := func(base core.Baseline) (core.Detector, error) {
		switch c.Family {
		case FamilySRAA:
			return core.NewSRAA(core.SRAAConfig{
				SampleSize: c.SampleSize, Buckets: c.Buckets, Depth: c.Depth,
				Baseline: base,
			})
		case FamilySARAA:
			return core.NewSARAA(core.SARAAConfig{
				InitialSampleSize: c.SampleSize, Buckets: c.Buckets, Depth: c.Depth,
				Baseline: base,
			})
		case FamilyCLTA:
			return core.NewCLTA(core.CLTAConfig{
				SampleSize: c.SampleSize, Quantile: c.Quantile,
				Baseline: base,
			})
		}
		return nil, fmt.Errorf("fleet: class %q has unknown family %d", c.Name, int(c.Family))
	}
	if c.Shift == nil {
		return build(c.Baseline)
	}
	return core.NewRebase(*c.Shift, c.Baseline, build)
}

// class is the compiled, immutable form of a ClassConfig: every
// threshold the hot path needs, precomputed per bucket level with the
// exact floating-point expressions the core detectors evaluate, so the
// drain loop never touches math.Sqrt and still produces bit-identical
// targets.
type class struct {
	cfg    ClassConfig
	family Family
	k      int32 // bucket count K; 0 for CLTA
	depth  int32 // bucket depth D; 0 for CLTA
	// initSize is the sample size a fresh stream starts with.
	initSize int32
	// sizes[level] is the sample size in effect at each bucket level
	// (constant for SRAA, the accelerated schedule for SARAA; one entry
	// for CLTA).
	sizes []int32
	// targets[level] is the trigger threshold compared against a block
	// mean completed at that level (one entry for CLTA). Streams of a
	// shift class use these only until their first rebaseline; after
	// that the drain loop recomputes the target from the stream's
	// re-estimated baseline with the same expression.
	targets []float64
	// shift marks a class with a workload-shift layer; shiftCfg is the
	// defaults-applied configuration its streams step with.
	shift    bool
	shiftCfg core.ShiftConfig
	// sqrtN[level] is math.Sqrt of sizes[level], precomputed so the
	// per-stream target recompute of a shift class divides by the exact
	// square roots the core detectors evaluate without calling
	// math.Sqrt on the hot path (FamilySARAA per level; one entry for
	// FamilyCLTA; unused by FamilySRAA).
	sqrtN []float64
}

// compileClass precomputes the per-level schedule of one class.
func compileClass(cfg ClassConfig) (class, error) {
	if err := cfg.Validate(); err != nil {
		return class{}, err
	}
	c := class{cfg: cfg, family: cfg.Family, initSize: int32(cfg.SampleSize)}
	if cfg.Shift != nil {
		c.shift = true
		c.shiftCfg = cfg.Shift.WithDefaults()
	}
	mean, sd := cfg.Baseline.Mean, cfg.Baseline.StdDev
	switch cfg.Family {
	case FamilySRAA:
		c.k, c.depth = int32(cfg.Buckets), int32(cfg.Depth)
		c.sizes = make([]int32, cfg.Buckets)
		c.targets = make([]float64, cfg.Buckets)
		for lvl := 0; lvl < cfg.Buckets; lvl++ {
			c.sizes[lvl] = int32(cfg.SampleSize)
			c.targets[lvl] = mean + float64(lvl)*sd
		}
	case FamilySARAA:
		c.k, c.depth = int32(cfg.Buckets), int32(cfg.Depth)
		c.sizes = make([]int32, cfg.Buckets)
		c.targets = make([]float64, cfg.Buckets)
		for lvl := 0; lvl < cfg.Buckets; lvl++ {
			n := core.AcceleratedSampleSize(cfg.SampleSize, cfg.Buckets, lvl)
			c.sizes[lvl] = int32(n)
			// The exact expression core.SARAA.Target evaluates, so the
			// precomputed threshold is bit-identical to the reference.
			c.targets[lvl] = mean + float64(lvl)*sd/math.Sqrt(float64(n))
		}
	case FamilyCLTA:
		c.sizes = []int32{int32(cfg.SampleSize)}
		c.targets = []float64{mean + cfg.Quantile*sd/math.Sqrt(float64(cfg.SampleSize))}
	}
	if c.shift {
		c.sqrtN = make([]float64, len(c.sizes))
		for lvl, n := range c.sizes {
			c.sqrtN[lvl] = math.Sqrt(float64(n))
		}
	}
	return c, nil
}
