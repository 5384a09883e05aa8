package main

import (
	"math"
	"sort"
)

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; NaN for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// median returns the median of xs.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailSamples is how many samples must lie beyond the reported tail.
const tailSamples = 10

// perWindow splits xs, in op order, into windows of w samples and
// returns the median over complete windows of f applied to each window,
// and the number of windows. A run shorter than one window is one
// window. Taking a statistic per window and then the median keeps one
// stall of the shared machine from setting the figure, while a slow op
// that recurs in every window still does.
func perWindow(xs []float64, w int, f func([]float64) float64) (value float64, windows int) {
	if len(xs) < w {
		return f(xs), 1
	}
	var vs []float64
	for i := 0; i+w <= len(xs); i += w {
		vs = append(vs, f(xs[i:i+w]))
	}
	return median(vs), len(vs)
}

// sum returns the sum of xs.
func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// maxOf returns the largest element of xs.
func maxOf(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

// tailLatency returns the highest percentile of xs that has at least
// tailSamples samples beyond it, and that percentile as a fraction: the
// (tailSamples+1)-th largest sample, at empirical quantile
// (n-tailSamples)/n. With too few samples it is the maximum.
func tailLatency(xs []float64) (value, q float64) {
	n := len(xs)
	if n == 0 {
		return math.NaN(), 0
	}
	s := sorted(xs)
	if n <= tailSamples {
		return s[n-1], 1
	}
	return s[n-1-tailSamples], float64(n-tailSamples) / float64(n)
}
