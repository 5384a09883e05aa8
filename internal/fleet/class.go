package fleet

import (
	"fmt"

	"rejuv/internal/core"
)

// Family selects which of the paper's detector algorithms a stream
// class runs. Every family is a core.Plan stepping one core.State per
// stream, the same kernel the pointer-based detectors in internal/core
// run.
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
	// every stream of the class: workload shifts restart the stream's
	// detector state at the re-estimated mean and deviation (journaled
	// as stream-tagged KindRebaseline records) while software aging
	// triggers as usual. The per-stream transition rule is
	// core.ShiftState and the restart is Plan.Start, both shared
	// verbatim with the Rebase wrapper, so replay against Rebase-wrapped
	// reference detectors stays byte-identical.
	Shift *core.ShiftConfig
}

// Validate reports whether the class is usable, by validating the
// corresponding core detector configuration.
func (c ClassConfig) Validate() error {
	_, err := c.plan()
	return err
}

// plan validates the class and returns its kernel plan: the one its
// streams step and its reference detector (Detector) steps.
func (c ClassConfig) plan() (core.Plan, error) {
	if c.Name == "" {
		return core.Plan{}, fmt.Errorf("fleet: class needs a name")
	}
	if c.Shift != nil {
		if err := c.Shift.WithDefaults().Validate(); err != nil {
			return core.Plan{}, fmt.Errorf("fleet: class %q shift layer: %w", c.Name, err)
		}
	}
	switch c.Family {
	case FamilySRAA:
		cfg := core.SRAAConfig{
			SampleSize: c.SampleSize, Buckets: c.Buckets, Depth: c.Depth,
			Baseline: c.Baseline,
		}
		return cfg.Plan(), cfg.Validate()
	case FamilySARAA:
		cfg := core.SARAAConfig{
			InitialSampleSize: c.SampleSize, Buckets: c.Buckets, Depth: c.Depth,
			Baseline: c.Baseline,
		}
		return cfg.Plan(), cfg.Validate()
	case FamilyCLTA:
		cfg := core.CLTAConfig{
			SampleSize: c.SampleSize, Quantile: c.Quantile,
			Baseline: c.Baseline,
		}
		return cfg.Plan(), cfg.Validate()
	}
	return core.Plan{}, fmt.Errorf("fleet: class %q has unknown family %d", c.Name, int(c.Family))
}

// Detector constructs the reference pointer-based detector for this
// class (Rebase-wrapped when the class has a Shift layer). Fleet replay
// verification uses it as the factory: feeding a stream's journaled
// observations through this detector must reproduce the engine's
// journaled decisions byte for byte. It steps the same compiled plan as
// the class's streams, so the replay checks the engine's shell around
// the kernel: hygiene, cooldown, shift layering and journaling.
func (c ClassConfig) Detector() (core.Detector, error) {
	p, err := c.plan()
	if err != nil {
		return nil, err
	}
	if c.Shift == nil {
		return p.NewDetector(c.Baseline), nil
	}
	return core.NewRebase(*c.Shift, c.Baseline, func(base core.Baseline) (core.Detector, error) {
		return p.NewDetector(base), nil
	})
}

// class is the compiled, immutable form of a ClassConfig: the kernel
// plan every stream of the class steps its core.State with.
type class struct {
	cfg  ClassConfig
	plan core.Plan
	// shift marks a class with a workload-shift layer; shiftCfg is the
	// defaults-applied configuration its streams step with.
	shift    bool
	shiftCfg core.ShiftConfig
}

// compileClass validates one class and builds its plan.
func compileClass(cfg ClassConfig) (class, error) {
	p, err := cfg.plan()
	if err != nil {
		return class{}, err
	}
	c := class{cfg: cfg, plan: p}
	if cfg.Shift != nil {
		c.shift = true
		c.shiftCfg = cfg.Shift.WithDefaults()
	}
	return c, nil
}
