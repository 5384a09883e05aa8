package core

import "math"

// Moments is an exponentially weighted online estimate of the first two
// moments of the monitored metric: the µX and σX the paper's detectors
// are parameterized by, tracked continuously so the workload-shift layer
// (shift.go) can re-estimate a baseline after the workload moves. The
// smoothing factor is passed per call, like the Hygiene policy, so the
// state stays a plain value that packs into struct-of-arrays storage.
//
// The recurrence is the standard exponentially weighted mean/variance
// pair: with d = x - mean and incr = alpha*d,
//
//	mean     <- mean + incr
//	variance <- (1-alpha) * (variance + d*incr)
//
// The first observation seeds the mean exactly (variance 0), so the
// estimate carries no bias toward zero while the window warms up.
type Moments struct {
	mean float64
	varc float64
	n    uint64
}

// Observe folds one observation into the estimate with smoothing factor
// alpha in (0, 1]: larger alpha forgets faster. It is on the fleet's
// per-observation path and must stay allocation-free.
//
//lint:hotpath
func (m *Moments) Observe(alpha, x float64) {
	m.n++
	if m.n == 1 {
		m.mean = x
		m.varc = 0
		return
	}
	d := x - m.mean
	incr := alpha * d
	m.mean += incr
	m.varc = (1 - alpha) * (m.varc + d*incr)
}

// Mean returns the current exponentially weighted mean estimate (0
// before the first observation).
func (m *Moments) Mean() float64 { return m.mean }

// StdDev returns the square root of the variance estimate.
func (m *Moments) StdDev() float64 { return math.Sqrt(m.varc) }

// Reset discards the estimate.
func (m *Moments) Reset() { *m = Moments{} }
