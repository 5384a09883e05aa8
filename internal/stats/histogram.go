package stats

import (
	"fmt"
	"math"
)

// Histogram counts observations in equal-width bins over [Lo, Hi), with
// overflow counters for observations outside the range. It is used to
// estimate the empirical density of simulated response times for
// comparison with the analytical densities of Fig. 5.
type Histogram struct {
	Lo, Hi   float64
	Counts   []int64
	Under    int64
	Over     int64
	binWidth float64
	total    int64
}

// NewHistogram returns a histogram with the given bin count over [lo, hi).
// It panics on invalid bounds or a non-positive bin count, which are
// programming errors.
func NewHistogram(lo, hi float64, bins int) *Histogram {
	if !(lo < hi) || bins <= 0 {
		panic(fmt.Sprintf("stats: invalid histogram [%v,%v) with %d bins", lo, hi, bins))
	}
	return &Histogram{
		Lo:       lo,
		Hi:       hi,
		Counts:   make([]int64, bins),
		binWidth: (hi - lo) / float64(bins),
	}
}

// Add records one observation.
func (h *Histogram) Add(x float64) {
	h.total++
	switch {
	case math.IsNaN(x):
		// NaN observations count toward the total but no bin; surfacing
		// them as underflow would misattribute them to the left tail.
	case x < h.Lo:
		h.Under++
	case x >= h.Hi:
		h.Over++
	default:
		i := int((x - h.Lo) / h.binWidth)
		if i >= len(h.Counts) { // guard against float rounding at Hi
			i = len(h.Counts) - 1
		}
		h.Counts[i]++
	}
}

// BinCenter returns the midpoint of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	return h.Lo + (float64(i)+0.5)*h.binWidth
}

// Density returns the estimated probability density at each bin center:
// count / (total * width). The densities integrate to the in-range
// probability mass.
func (h *Histogram) Density() []float64 {
	out := make([]float64, len(h.Counts))
	if h.total == 0 {
		return out
	}
	norm := 1 / (float64(h.total) * h.binWidth)
	for i, c := range h.Counts {
		out[i] = float64(c) * norm
	}
	return out
}
