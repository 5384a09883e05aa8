package stats

import (
	"fmt"
	"sort"
)

// Quantile returns the p-quantile of xs using linear interpolation
// between order statistics (type-7 estimator, the R default). The input
// is not modified. It returns an error for an empty slice or p outside
// [0, 1].
func Quantile(xs []float64, p float64) (float64, error) {
	if len(xs) == 0 {
		return 0, fmt.Errorf("stats: quantile of empty slice")
	}
	if p < 0 || p > 1 {
		return 0, fmt.Errorf("stats: quantile p=%v outside [0,1]", p)
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	n := len(sorted)
	if n == 1 {
		return sorted[0], nil
	}
	h := p * float64(n-1)
	lo := int(h)
	if lo >= n-1 {
		return sorted[n-1], nil
	}
	frac := h - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo]), nil
}
