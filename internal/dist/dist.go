// Package dist defines the continuous probability distributions used by
// the queueing analytics and the simulators: exponential, Erlang,
// hypoexponential, hyperexponential, and finite mixtures.
//
// Each distribution exposes moments, CDF, and sampling; Erlang and
// hypoexponential also expose their density. The
// hypo-/hyperexponential forms are exactly the building blocks of the
// paper's phase-type representation of the M/M/c response time (Fig. 2).
package dist

import (
	"fmt"
	"math"

	"rejuv/internal/xrand"
)

// Dist is a continuous probability distribution on [0, inf).
type Dist interface {
	// Mean returns the expected value.
	Mean() float64
	// Var returns the variance.
	Var() float64
	// CDF returns P(X <= x).
	CDF(x float64) float64
	// Sample draws one value using the given generator.
	Sample(r *xrand.Rand) float64
}

// Exponential is the exponential distribution with the given Rate.
type Exponential struct {
	Rate float64
}

// Mean returns 1/rate.
func (e Exponential) Mean() float64 { return 1 / e.Rate }

// Var returns 1/rate^2.
func (e Exponential) Var() float64 { return 1 / (e.Rate * e.Rate) }

// CDF returns 1 - exp(-rate*x) for x >= 0.
func (e Exponential) CDF(x float64) float64 {
	if x < 0 {
		return 0
	}
	return -math.Expm1(-e.Rate * x)
}

// Sample draws by inversion.
func (e Exponential) Sample(r *xrand.Rand) float64 { return r.Exp(e.Rate) }

// Quantile returns the p-quantile, defined for p in [0, 1).
func (e Exponential) Quantile(p float64) float64 {
	if p < 0 || p >= 1 {
		panic(fmt.Sprintf("dist: exponential quantile p=%v outside [0,1)", p))
	}
	return -math.Log1p(-p) / e.Rate
}

var (
	_ Dist = Exponential{}
	_ Dist = Erlang{}
	_ Dist = HypoExp{}
	_ Dist = HyperExp{}
	_ Dist = Mixture{}
)
