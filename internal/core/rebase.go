package core

import "fmt"

// Rebase layers the workload-shift decision rule (shift.go) under any
// detector family: the change-point statistics watch the admitted
// observation stream, and when the workload shifts the inner detector
// restarts in place at the re-estimated baseline — bucket targets and
// sample sizes recomputed from the new (µ, σ) — instead of firing a
// false rejuvenation or staying miscalibrated forever. Changes
// classified as software aging pass through untouched, so the wrapped
// family triggers exactly as it does without the wrapper.
//
// During a relearn window the inner detector is paused: a sample window
// straddling two workload regimes has a meaningless mean, so no
// decision is evaluated until the new baseline is committed. Rebase is
// the pointer-based twin of the fleet engine's per-stream shift state;
// both run ShiftState.Step verbatim, and fleet journal replay against
// Rebase-wrapped reference detectors proves them byte-identical.
type Rebase struct {
	cfg   ShiftConfig
	st    ShiftState
	inner rebaser
	orig  Baseline
}

// rebaser is a detector Rebase can wrap: every detector of this
// package except Rebase itself.
type rebaser interface {
	Detector
	// rebase restarts the detector in exactly the state its constructor
	// gives it at base. The rule is the one a fleet stream applies to
	// its core.State on a committed rebaseline.
	rebase(base Baseline)
}

// Rebaseliner is implemented by detectors that re-estimate their
// baseline online. The journal layer uses it to record and replay-
// verify rebaseline events, and the Monitor to count them.
type Rebaseliner interface {
	// Rebaselines returns how many rebaselines have been committed.
	Rebaselines() uint64
	// CurrentBaseline returns the committed baseline currently in
	// effect.
	CurrentBaseline() Baseline
}

// Compile-time interface compliance (Detector and Instrumented are
// checked centrally in detector.go and instrument.go).
var _ Rebaseliner = (*Rebase)(nil)

// NewRebase wraps the detector family built by build with the
// workload-shift layer, starting from the given baseline. cfg's zero
// fields take the documented defaults. build is invoked once, at base;
// a committed rebaseline restarts the detector it returned in place.
// The detector must be one of this package's families (SRAA, SARAA,
// CLTA, a Plan's detector, Shewhart, EWMA, CUSUM or Adaptive).
func NewRebase(cfg ShiftConfig, base Baseline, build func(Baseline) (Detector, error)) (*Rebase, error) {
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := base.Validate(); err != nil {
		return nil, err
	}
	if build == nil {
		return nil, fmt.Errorf("core: rebase detector factory must not be nil")
	}
	inner, err := build(base)
	if err != nil {
		return nil, fmt.Errorf("core: rebase factory rejected the initial baseline: %w", err)
	}
	if inner == nil {
		return nil, fmt.Errorf("core: rebase factory returned a nil detector")
	}
	rb, ok := inner.(rebaser)
	if !ok {
		return nil, fmt.Errorf("core: rebase cannot restart a %T at a new baseline", inner)
	}
	return &Rebase{cfg: cfg, st: NewShiftState(base), inner: rb, orig: base}, nil
}

// Observe feeds one observation through the shift layer and, unless a
// relearn is in progress, the inner detector.
//
//lint:hotpath
func (r *Rebase) Observe(x float64) Decision {
	switch r.st.Step(r.cfg, x) {
	case ShiftRelearning:
		return Decision{}
	case ShiftRebaselined:
		r.inner.rebase(r.st.Base)
		return Decision{}
	}
	d := r.inner.Observe(x)
	if d.Triggered {
		r.st.NoteTrigger()
	}
	return d
}

// Reset restores the inner detector's initial state, as after an
// external rejuvenation, and re-arms the shift layer exactly as an
// internal trigger would. The learned baseline survives: rejuvenation
// restores capacity, it does not move the workload. An in-progress
// relearn is abandoned without committing.
func (r *Rebase) Reset() {
	r.inner.Reset()
	r.st.NoteTrigger()
	r.st.RelearnLeft = 0
}

// Rebaselines returns how many rebaselines have been committed.
func (r *Rebase) Rebaselines() uint64 { return r.st.Rebaselines }

// CurrentBaseline returns the committed baseline currently in effect.
func (r *Rebase) CurrentBaseline() Baseline { return r.st.Base }

// InitialBaseline returns the baseline the wrapper was constructed
// with.
func (r *Rebase) InitialBaseline() Baseline { return r.orig }

// Relearning reports whether a relearn window is in progress (the inner
// detector is paused).
func (r *Rebase) Relearning() bool { return r.st.RelearnLeft > 0 }

// Internals delegates to the inner detector untouched: the shift layer
// owns no decision fields, so the replayed internals must be exactly
// the inner family's — that is what keeps journal replay byte-identical
// through rebaselines.
func (r *Rebase) Internals() Internals {
	if in, ok := r.inner.(Instrumented); ok {
		return in.Internals()
	}
	return Internals{}
}
