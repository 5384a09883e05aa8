package core

import (
	"fmt"
	"math"
)

// This file is the detector kernel of the paper's three algorithms
// (Figs. 6–8). They share one scheme: average consecutive,
// non-overlapping blocks of n observations — x̄_u = (1/n) Σ x_t —
// compare each block mean with a target derived from the baseline
// (µ, σ), and, for SRAA and SARAA, step the ball-and-bucket counter on
// the outcome. They differ only in the target and in whether n shrinks
// as degradation deepens:
//
//	SRAA:  µ + N·σ      n fixed
//	SARAA: µ + N·σ/√n   n = floor(1 + (n_orig-1)·(1 - N/K))
//	CLTA:  µ + q·σ/√n   n fixed; no buckets, one exceedance triggers
//
// Plan holds a family's constants and State one stream's mutable
// position. Both are plain values: the pointer detectors (SRAA, SARAA,
// CLTA) each embed one plan and one state, and a fleet shard keeps one
// State per stream slot. The baseline is an argument of Decide, not
// part of the plan, because the workload-shift layer re-estimates
// (µ, σ) per stream.

// Plan is the immutable configuration of one detector family: K, D, the
// initial sample size, the CLTA quantile and whether the sample size
// accelerates. It holds no slices, so a detector costs no allocation
// beyond its own struct. Build one with SRAAConfig.Plan,
// SARAAConfig.Plan or CLTAConfig.Plan on a validated configuration.
type Plan struct {
	k, depth int32   // K and D; 0 for CLTA, which has no buckets
	n0       int32   // initial sample size n_orig
	accel    bool    // SARAA: n shrinks with the bucket level
	q        float64 // CLTA quantile; 0 for the bucket families
}

// State is one stream's position under its plan: the running block and
// the ball-and-bucket counter. Start from Plan.Start.
type State struct {
	sum   float64 // running block sum
	count int32   // observations in the current block
	n     int32   // sample size n currently in effect
	fill  int32   // ball count d of the current bucket
	level int32   // bucket pointer N in [0, K)
}

// Buckets returns K, the number of buckets (0 for CLTA).
func (p *Plan) Buckets() int { return int(p.k) }

// Start returns the initial state: an empty block of the initial sample
// size at fill 0, level 0.
func (p *Plan) Start() State { return State{n: p.n0} }

// Level returns the bucket pointer N.
func (s *State) Level() int { return int(s.level) }

// Fill returns the ball count d of the current bucket.
func (s *State) Fill() int { return int(s.fill) }

// SampleSize returns the sample size n currently in effect.
func (s *State) SampleSize() int { return int(s.n) }

// Add folds one observation into the current block. When x completes
// the block it returns the block mean and true, and the next block
// starts empty.
func (s *State) Add(x float64) (mean float64, done bool) {
	s.sum += x
	s.count++
	if s.count < s.n {
		return 0, false
	}
	mean = s.sum / float64(s.n)
	s.sum, s.count = 0, 0
	return mean, true
}

// Decide evaluates a block mean completed by Add: it compares the mean
// with the target the plan derives from base at the state's level and
// sample size, steps the bucket counter, applies SARAA's resize, and
// writes the outcome to d. On a trigger the state is already back at
// its start. base is the plan's configured baseline, or the one the
// workload-shift layer re-estimated for the stream.
//
//lint:hotpath
func (p *Plan) Decide(s *State, base Baseline, mean float64, d *Decision) {
	target := p.target(s, base)
	// Field stores rather than a composite literal: the literal is built
	// in a temporary and copied with wide loads that straddle its narrow
	// bool stores, stalling store-to-load forwarding.
	d.Evaluated, d.SampleMean, d.Target = true, mean, target
	if p.k == 0 {
		d.Triggered, d.Level, d.Fill = mean > target, 0, 0
		return
	}
	ev := p.step(s, mean > target)
	if p.accel && ev != bucketNone {
		// The block is empty here, so the resize discards nothing. A
		// trigger left the level at 0, which restores n_orig.
		s.n = int32(acceleratedSampleSize(int(p.n0), int(p.k), int(s.level)))
	}
	d.Triggered, d.Level, d.Fill = ev == bucketTrigger, int(s.level), int(s.fill)
}

// target returns the threshold the state's next block mean is compared
// against, calling math.Sqrt on the current sample size.
func (p *Plan) target(s *State, base Baseline) float64 {
	switch {
	case p.k == 0:
		return base.Mean + p.q*base.StdDev/math.Sqrt(float64(s.n))
	case p.accel:
		return base.Mean + float64(s.level)*base.StdDev/math.Sqrt(float64(s.n))
	}
	return base.Mean + float64(s.level)*base.StdDev
}

// bucketEvent is what one ball-and-bucket step did.
type bucketEvent int

// Ball-and-bucket step outcomes.
const (
	// bucketNone is an ordinary fill or drain within the current bucket.
	bucketNone bucketEvent = iota
	// bucketOverflow spilled the current bucket: the level advanced.
	bucketOverflow
	// bucketUnderflow drained the current bucket: the level receded.
	bucketUnderflow
	// bucketTrigger overflowed the last bucket: rejuvenate now. The
	// state is already reset to (fill 0, level 0).
	bucketTrigger
)

// step applies one exceed/recede outcome to the ball-and-bucket
// counter, with exactly the transitions of the paper's pseudo-code
// (Figs. 6 and 7):
//
//	exceed target:  d++        otherwise: d--
//	d > D          -> overflow:  d = 0, N++
//	d < 0 && N > 0 -> underflow: d = D, N--
//	d < 0 && N == 0 -> d = 0
//	N == K         -> trigger, then d = 0, N = 0
//
// The pseudo-code overflows on d > D (strict), i.e. a bucket holds D+1
// net exceedances before spilling; the prose "reaches its allowed
// depth" is ambiguous and the pseudo-code is authoritative here.
func (p *Plan) step(s *State, exceeded bool) bucketEvent {
	if exceeded {
		s.fill++
	} else {
		s.fill--
	}
	switch {
	case s.fill > p.depth:
		s.fill = 0
		s.level++
		if s.level == p.k {
			s.level = 0
			return bucketTrigger
		}
		return bucketOverflow
	case s.fill < 0 && s.level > 0:
		s.fill = p.depth
		s.level--
		return bucketUnderflow
	case s.fill < 0:
		s.fill = 0
	}
	return bucketNone
}

// acceleratedSampleSize returns the paper's linear sampling-
// acceleration rule for bucket level N: floor(1 + (norig-1)*(1 - N/K)).
// Evaluated in integer arithmetic — floor(1 + (norig-1)*(K-N)/K) —
// because the floating-point form rounds cases like norig=6, K=5, N=4
// down to 1 instead of the exact 2.
func acceleratedSampleSize(norig, k, level int) int {
	return 1 + (norig-1)*(k-level)/k
}

// checkPlanInt validates one of a plan's integer parameters (n, K or
// D): positive, and small enough for the int32 fields of Plan and State.
func checkPlanInt(name string, v int) error {
	if v <= 0 {
		return fmt.Errorf("core: %s must be positive, got %d", name, v)
	}
	if v > math.MaxInt32 {
		return fmt.Errorf("core: %s must be at most %d, got %d", name, math.MaxInt32, v)
	}
	return nil
}

// validateBuckets checks the ball-and-bucket parameters K and D.
func validateBuckets(k, depth int) error {
	if err := checkPlanInt("number of buckets K", k); err != nil {
		return err
	}
	return checkPlanInt("bucket depth D", depth)
}

// blockDetector is the pointer-based detector shared by SRAA, SARAA and
// CLTA: one plan, the configured baseline and one state.
type blockDetector struct {
	plan Plan
	base Baseline
	st   State
}

func newBlockDetector(p Plan, base Baseline) blockDetector {
	return blockDetector{plan: p, base: base, st: p.Start()}
}

// NewDetector returns the pointer detector that steps the plan against
// base: the SRAA, SARAA or CLTA the plan was built from, minus its
// Config accessor. The plan must come from a validated configuration
// and base must be valid.
func (p *Plan) NewDetector(base Baseline) Detector {
	b := newBlockDetector(*p, base)
	return &b
}

// Target returns the threshold the next completed sample mean is
// compared against: µ + N·σ (SRAA), µ + N·σ/√n with the current n
// (SARAA) or µ + q·σ/√n (CLTA).
func (b *blockDetector) Target() float64 { return b.plan.target(&b.st, b.base) }

// Observe feeds one observation. The result is named so that Decide
// writes it in place.
//
//lint:hotpath
func (b *blockDetector) Observe(x float64) (d Decision) {
	mean, done := b.st.Add(x)
	if !done {
		return Decision{Level: int(b.st.level), Fill: int(b.st.fill)}
	}
	b.plan.Decide(&b.st, b.base, mean, &d)
	return d
}

// Reset restores the initial state, including SARAA's original sample
// size.
func (b *blockDetector) Reset() { b.st = b.plan.Start() }

func (b *blockDetector) rebase(base Baseline) { b.base, b.st = base, b.plan.Start() }

// Internals returns the current bucket occupancy (zero for CLTA, which
// has no buckets), sample progress and target.
func (b *blockDetector) Internals() Internals {
	return Internals{
		Level:      int(b.st.level),
		Buckets:    int(b.plan.k),
		Fill:       int(b.st.fill),
		Depth:      int(b.plan.depth),
		SampleSize: int(b.st.n),
		SampleFill: int(b.st.count),
		Target:     b.Target(),
	}
}
