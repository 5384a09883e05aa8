package stats

import "math"

// Welford accumulates count, mean, and variance of a stream in one pass
// using Welford's numerically stable recurrence. The zero value is an
// empty accumulator ready to use.
type Welford struct {
	n    int64
	mean float64
	m2   float64 // sum of squared deviations from the running mean
	min  float64
	max  float64
}

// Add folds x into the accumulator.
func (w *Welford) Add(x float64) {
	w.n++
	if w.n == 1 {
		w.mean, w.m2 = x, 0
		w.min, w.max = x, x
		return
	}
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
	if x < w.min {
		w.min = x
	}
	if x > w.max {
		w.max = x
	}
}

// Merge folds another accumulator into w using Chan et al.'s parallel
// combination rule, so per-replication accumulators can be pooled.
func (w *Welford) Merge(o Welford) {
	if o.n == 0 {
		return
	}
	if w.n == 0 {
		*w = o
		return
	}
	n := w.n + o.n
	d := o.mean - w.mean
	w.m2 += o.m2 + d*d*float64(w.n)*float64(o.n)/float64(n)
	w.mean += d * float64(o.n) / float64(n)
	w.n = n
	if o.min < w.min {
		w.min = o.min
	}
	if o.max > w.max {
		w.max = o.max
	}
}

// N returns the number of observations.
func (w *Welford) N() int64 { return w.n }

// Mean returns the sample mean, or NaN when empty.
func (w *Welford) Mean() float64 {
	if w.n == 0 {
		return math.NaN()
	}
	return w.mean
}

// Var returns the unbiased sample variance, or NaN with fewer than two
// observations.
func (w *Welford) Var() float64 {
	if w.n < 2 {
		return math.NaN()
	}
	return w.m2 / float64(w.n-1)
}

// StdDev returns the unbiased sample standard deviation.
func (w *Welford) StdDev() float64 { return math.Sqrt(w.Var()) }

// Min returns the smallest observation, or NaN when empty.
func (w *Welford) Min() float64 {
	if w.n == 0 {
		return math.NaN()
	}
	return w.min
}

// Max returns the largest observation, or NaN when empty.
func (w *Welford) Max() float64 {
	if w.n == 0 {
		return math.NaN()
	}
	return w.max
}

// Reset returns the accumulator to its empty state.
func (w *Welford) Reset() { *w = Welford{} }

// StdErr returns the standard error of the mean, or NaN with fewer than
// two observations.
func (w *Welford) StdErr() float64 {
	if w.n < 2 {
		return math.NaN()
	}
	return w.StdDev() / math.Sqrt(float64(w.n))
}
