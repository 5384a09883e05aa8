package faults

import (
	"math"

	"rejuv/internal/xrand"
)

// Count is one clause of an Injector with the number of times it fired.
type Count struct {
	// Class is the clause's fault class.
	Class Class
	// N counts the observations the clause affected.
	N int
}

// Injector applies the stream clauses of a Spec to an observation
// sequence. It is a deterministic state machine over a dedicated xrand
// stream: the same spec, seed, stream and input sequence always injects
// the same faults at the same positions, so faulted runs replay
// byte-identically.
//
// Apply maps one input observation to zero, one or two output
// observations (drop/stall emit none; dup emits two; reorder holds one
// back a slot). Call Flush after the final input to drain a held-back
// observation. Not safe for concurrent use.
type Injector struct {
	// OnFault, when non-nil, is called once per injected fault with the
	// class and the affected value — the hook rejuvsim uses to journal
	// KindFault records.
	OnFault func(class Class, value float64)

	clauses []Clause // stream clauses, spec order
	counts  []int    // parallel to clauses
	rng     *xrand.Rand

	index    int     // 0-based input observation index
	last     float64 // last clean input value, for freeze
	haveLast bool
	frozen   int     // remaining observations of an active freeze run
	held     float64 // reorder hold-back slot
	holding  bool
	out      []float64 // scratch reused across Apply calls
}

// NewInjector builds an injector for the stream clauses of spec,
// drawing from xrand stream (seed, stream). Non-stream clauses are
// ignored; an empty injector passes observations through untouched.
func NewInjector(spec Spec, seed, stream uint64) *Injector {
	clauses := spec.Stream()
	return &Injector{
		clauses: clauses,
		counts:  make([]int, len(clauses)),
		rng:     xrand.NewStream(seed, stream),
	}
}

// Active reports whether the injector has any stream clauses.
func (j *Injector) Active() bool { return len(j.clauses) > 0 }

// Counts returns the per-clause fire counts, in spec order.
func (j *Injector) Counts() []Count {
	out := make([]Count, len(j.clauses))
	for i, c := range j.clauses {
		out[i] = Count{Class: c.Class, N: j.counts[i]}
	}
	return out
}

// fire tallies clause i and notifies the hook.
func (j *Injector) fire(i int, value float64) {
	j.counts[i]++
	if j.OnFault != nil {
		j.OnFault(j.clauses[i].Class, value)
	}
}

// Apply feeds one observation through the fault pipeline and returns
// the observations to deliver downstream, oldest first. The returned
// slice is reused by the next Apply — copy it if it must outlive the
// call.
//
// Per observation, in order: an active stall window swallows the input;
// an active freeze run substitutes the last clean value; value
// corruptions (nan, inf, neg, freeze onset) then fire in spec order,
// first hit wins; the emission faults (drop, dup, reorder) fire in spec
// order, first hit wins. An observation held back by reorder is
// released after its successor — that deferred release is what swaps
// the pair.
//
//lint:allow hotpath appends into the injector's reused output buffer (at most three values); growth amortizes to zero
func (j *Injector) Apply(x float64) []float64 {
	pending, hadPending := j.held, j.holding
	j.holding = false
	out := j.apply(x)
	if hadPending {
		out = append(out, pending)
		j.out = out
	}
	return out
}

// apply runs the per-observation pipeline, writing into the scratch
// slice; the reorder hold-back release happens in Apply.
//
//lint:allow hotpath appends into the injector's reused output buffer (at most three values); growth amortizes to zero
func (j *Injector) apply(x float64) []float64 {
	idx := j.index
	j.index++
	j.out = j.out[:0]

	for i, c := range j.clauses {
		if c.Class == ClassStall && float64(idx) >= c.At && float64(idx) < c.At+float64(c.Len) {
			j.fire(i, x)
			return j.out
		}
	}

	v := x
	corrupted := false
	if j.frozen > 0 {
		j.frozen--
		if !j.haveLast {
			j.last, j.haveLast = x, true
		}
		v = j.last
		corrupted = true
		// The per-run count was taken at freeze onset; frozen emissions
		// still notify the hook so journals show the whole run.
		if j.OnFault != nil {
			j.OnFault(ClassFreeze, v)
		}
	}
	if !corrupted {
		for i, c := range j.clauses {
			switch c.Class {
			case ClassNaN, ClassInf, ClassNeg, ClassFreeze:
				if j.rng.Float64() >= c.P {
					continue
				}
				switch c.Class {
				case ClassNaN:
					v = math.NaN()
				case ClassInf:
					v = math.Inf(c.Sign)
				case ClassNeg:
					v = -v
				case ClassFreeze:
					// This observation is the first of the frozen run; it
					// repeats the previous clean reading (or itself when it
					// is the very first observation).
					j.frozen = c.Len - 1
					if !j.haveLast {
						j.last, j.haveLast = x, true
					}
					v = j.last
				}
				j.fire(i, v)
				corrupted = true
			}
			if corrupted {
				break
			}
		}
	}
	// Track the last cleanly emitted value so a later freeze run repeats
	// a truthful reading, not an injected one.
	if !corrupted {
		j.last, j.haveLast = x, true
	}

	for i, c := range j.clauses {
		switch c.Class {
		case ClassDrop, ClassDup, ClassReorder:
			if j.rng.Float64() >= c.P {
				continue
			}
			j.fire(i, v)
			switch c.Class {
			case ClassDrop:
				return j.out
			case ClassDup:
				j.out = append(j.out, v, v)
				return j.out
			case ClassReorder:
				j.held, j.holding = v, true
				return j.out
			}
		}
	}
	j.out = append(j.out, v)
	return j.out
}

// Flush releases an observation still held back by a reorder clause.
// Call once after the final Apply; the returned slice is reused like
// Apply's.
func (j *Injector) Flush() []float64 {
	j.out = j.out[:0]
	if j.holding {
		j.out = append(j.out, j.held)
		j.holding = false
	}
	return j.out
}
