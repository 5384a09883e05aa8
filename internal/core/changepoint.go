package core

// The change-point statistic of the workload-shift layer (shift.go): a
// two-sided CUSUM over standardized observations z = (x - µ)/σ. It is a
// plain value type with an allocation-free step, so the fleet engine
// can hold one per stream in struct-of-arrays storage, and it tracks
// the run length of its active side — the number of consecutive steps
// the statistic has stayed positive — because run length at detection
// time is what separates an abrupt workload shift (short run, large per-step drift)
// from slow software aging (long run, small per-step drift).
//
// It is distinct from the CUSUM *detector* in control.go: that one is a
// trigger comparator ablated against the paper's algorithms; this one
// watches for changes in the baseline itself.

// CUSUMChange is a two-sided cumulative-sum change-point statistic. The
// upper side accumulates max(0, S + z - slack), the lower side
// max(0, S - z - slack); either exceeding the threshold signals a
// change in the indicated direction.
type CUSUMChange struct {
	// Pos and Neg are the upper and lower cumulative sums, in σ units.
	Pos, Neg float64
	// PosRun and NegRun count consecutive steps the respective sum has
	// been positive.
	PosRun, NegRun int32
}

// Step folds one standardized observation z and reports whether either
// side crossed the threshold, and which (up true means the metric moved
// upward). The statistic keeps accumulating after a detection; callers
// decide when to Reset.
//
//lint:hotpath
func (c *CUSUMChange) Step(z, slack, threshold float64) (detected, up bool) {
	c.Pos += z - slack
	if c.Pos > 0 {
		c.PosRun++
	} else {
		c.Pos = 0
		c.PosRun = 0
	}
	c.Neg += -z - slack
	if c.Neg > 0 {
		c.NegRun++
	} else {
		c.Neg = 0
		c.NegRun = 0
	}
	if c.Pos > threshold {
		return true, true
	}
	if c.Neg > threshold {
		return true, false
	}
	return false, false
}

// Run returns the current run length of the indicated side.
func (c *CUSUMChange) Run(up bool) int {
	if up {
		return int(c.PosRun)
	}
	return int(c.NegRun)
}

// Reset clears both sides.
func (c *CUSUMChange) Reset() { *c = CUSUMChange{} }
