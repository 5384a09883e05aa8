package stats

import (
	"fmt"
	"math"

	"rejuv/internal/num"
)

// Autocorrelation returns the lag-k sample autocorrelation coefficient of
// xs using the estimator of Shumway & Stoffer (2000, p. 26), the one the
// paper applies to its response-time series:
//
//	gamma_k = sum_{i=1}^{n-k} (x_{i+k} - xbar)(x_i - xbar) / sum (x_i - xbar)^2
//
// It returns an error when lag is out of range or the series is constant
// (zero variance), rather than a NaN that would poison downstream math.
func Autocorrelation(xs []float64, lag int) (float64, error) {
	n := len(xs)
	if lag < 1 || lag >= n {
		return 0, fmt.Errorf("stats: lag %d out of range for series of length %d", lag, n)
	}
	mean := 0.0
	for _, x := range xs {
		mean += x
	}
	mean /= float64(n)
	var cov, den float64
	for i, x := range xs {
		d := x - mean
		den += d * d
		if i+lag < n {
			cov += (xs[i+lag] - mean) * d
		}
	}
	if num.Zero(den) {
		return 0, fmt.Errorf("stats: autocorrelation of constant series is undefined")
	}
	return cov / den, nil
}

// AutocorrelationSignificant reports whether the lag-k autocorrelation of
// a series of the given length differs significantly from zero at the 95%
// confidence level, using the paper's threshold 1.96/sqrt(n).
func AutocorrelationSignificant(coeff float64, n int) bool {
	return math.Abs(coeff) > 1.96/math.Sqrt(float64(n))
}
