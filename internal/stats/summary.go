package stats

import (
	"fmt"
	"math"

	"rejuv/internal/num"
)

// Summary is a compact description of a sample, convenient for tables.
type Summary struct {
	N      int64
	Mean   float64
	StdDev float64
	Min    float64
	Max    float64
}

// Summarize computes a Summary of xs.
func Summarize(xs []float64) Summary {
	var w Welford
	for _, x := range xs {
		w.Add(x)
	}
	return Summary{N: w.N(), Mean: w.Mean(), StdDev: w.StdDev(), Min: w.Min(), Max: w.Max()}
}

// String renders the summary on one line.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.4g sd=%.4g min=%.4g max=%.4g",
		s.N, s.Mean, s.StdDev, s.Min, s.Max)
}

// RelDiff returns |a-b| / max(|a|,|b|), a symmetric relative difference
// used by experiment reports when comparing measured values to the
// paper's. It returns 0 when both are zero.
func RelDiff(a, b float64) float64 {
	den := math.Max(math.Abs(a), math.Abs(b))
	if num.Zero(den) {
		return 0
	}
	return math.Abs(a-b) / den
}
