package dist

import (
	"fmt"
	"math"

	"rejuv/internal/num"
	"rejuv/internal/xrand"
)

// Erlang is the sum of K independent exponentials with common Rate.
type Erlang struct {
	K    int
	Rate float64
}

// NewErlang returns an Erlang distribution; it errors on invalid shape
// or rate.
func NewErlang(k int, rate float64) (Erlang, error) {
	if k <= 0 {
		return Erlang{}, fmt.Errorf("dist: Erlang shape must be positive, got %d", k)
	}
	if rate <= 0 || math.IsNaN(rate) || math.IsInf(rate, 0) {
		return Erlang{}, fmt.Errorf("dist: Erlang rate must be positive and finite, got %v", rate)
	}
	return Erlang{K: k, Rate: rate}, nil
}

// Mean returns K/rate.
func (e Erlang) Mean() float64 { return float64(e.K) / e.Rate }

// Var returns K/rate^2.
func (e Erlang) Var() float64 { return float64(e.K) / (e.Rate * e.Rate) }

// PDF returns the density at x, computed in log space to stay finite for
// large shapes.
func (e Erlang) PDF(x float64) float64 {
	if x < 0 {
		return 0
	}
	if num.Zero(x) {
		if e.K == 1 {
			return e.Rate
		}
		return 0
	}
	k := float64(e.K)
	logp := k*math.Log(e.Rate) + (k-1)*math.Log(x) - e.Rate*x - lgammaInt(e.K)
	return math.Exp(logp)
}

// CDF returns the regularized lower incomplete gamma via the series
// P(X<=x) = 1 - exp(-rx) * sum_{i<K} (rx)^i / i!.
func (e Erlang) CDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	rx := e.Rate * x
	// Accumulate terms in log space only when necessary; for moderate K
	// direct accumulation is exact enough.
	term := 1.0
	sum := 1.0
	for i := 1; i < e.K; i++ {
		term *= rx / float64(i)
		sum += term
	}
	c := 1 - math.Exp(-rx)*sum
	if c < 0 {
		return 0
	}
	return c
}

// Sample draws as a sum of K exponentials.
func (e Erlang) Sample(r *xrand.Rand) float64 {
	s := 0.0
	for i := 0; i < e.K; i++ {
		s += r.Exp(e.Rate)
	}
	return s
}

// lgammaInt returns log((k-1)!) for k >= 1.
func lgammaInt(k int) float64 {
	lg, _ := math.Lgamma(float64(k))
	return lg
}

// HypoExp is the hypoexponential distribution: the sum of independent
// exponential stages with distinct (or equal) Rates, in series. The
// two-stage case with rates (mu, c*mu-lambda) is the conditional M/M/c
// response time given queueing (paper Fig. 2, lower branch).
type HypoExp struct {
	Rates []float64
}

// NewHypoExp returns a hypoexponential distribution over the given
// stage rates; it errors if no rates are given or any is non-positive.
func NewHypoExp(rates ...float64) (HypoExp, error) {
	if len(rates) == 0 {
		return HypoExp{}, fmt.Errorf("dist: HypoExp needs at least one stage")
	}
	for _, r := range rates {
		if r <= 0 || math.IsNaN(r) || math.IsInf(r, 0) {
			return HypoExp{}, fmt.Errorf("dist: HypoExp rate must be positive and finite, got %v", r)
		}
	}
	out := HypoExp{Rates: make([]float64, len(rates))}
	copy(out.Rates, rates)
	return out, nil
}

// Mean returns the sum of stage means.
func (h HypoExp) Mean() float64 {
	s := 0.0
	for _, r := range h.Rates {
		s += 1 / r
	}
	return s
}

// Var returns the sum of stage variances.
func (h HypoExp) Var() float64 {
	s := 0.0
	for _, r := range h.Rates {
		s += 1 / (r * r)
	}
	return s
}

// coeffs returns the partial-fraction coefficients a_i such that
// PDF(x) = sum_i a_i r_i exp(-r_i x), valid when all rates are distinct.
func (h HypoExp) coeffs() ([]float64, bool) {
	n := len(h.Rates)
	as := make([]float64, n)
	for i, ri := range h.Rates {
		a := 1.0
		for j, rj := range h.Rates {
			if i == j {
				continue
			}
			d := rj - ri
			if num.Zero(d) {
				return nil, false
			}
			a *= rj / d
		}
		as[i] = a
	}
	return as, true
}

// pdf2 evaluates the two-stage density in a form that stays stable as
// the rates coincide: f(x) = -a*b*exp(-a*x)*expm1(-(b-a)*x)/(b-a), with
// the limit a^2*x*exp(-a*x) at b == a. The naive partial-fraction form
// cancels catastrophically when b-a is tiny — exactly the region around
// lambda = (c-1)*mu in the paper's eq. (1).
func pdf2(a, b, x float64) float64 {
	d := b - a
	if num.Zero(d) {
		return a * a * x * math.Exp(-a*x)
	}
	return -a * b * math.Exp(-a*x) * math.Expm1(-d*x) / d
}

// cdf2 evaluates the two-stage CDF stably:
// S(x) = exp(-a*x) * (1 - a*expm1(-(b-a)*x)/(b-a)), limit (1+a*x)*exp(-a*x).
func cdf2(a, b, x float64) float64 {
	d := b - a
	var s float64
	if num.Zero(d) {
		s = (1 + a*x) * math.Exp(-a*x)
	} else {
		s = math.Exp(-a*x) * (1 - a*math.Expm1(-d*x)/d)
	}
	c := 1 - s
	switch {
	case c < 0:
		return 0
	case c > 1:
		return 1
	}
	return c
}

// PDF returns the density at x. Two stages use a cancellation-free form;
// more distinct rates use the closed partial-fraction form; the
// all-equal case reduces to an Erlang density.
func (h HypoExp) PDF(x float64) float64 {
	if x < 0 {
		return 0
	}
	if len(h.Rates) == 2 {
		return pdf2(h.Rates[0], h.Rates[1], x)
	}
	if as, ok := h.coeffs(); ok {
		s := 0.0
		for i, r := range h.Rates {
			s += as[i] * r * math.Exp(-r*x)
		}
		if s < 0 {
			return 0
		}
		return s
	}
	if allEqual(h.Rates) {
		return Erlang{K: len(h.Rates), Rate: h.Rates[0]}.PDF(x)
	}
	panic("dist: HypoExp.PDF with partially repeated rates is not supported")
}

// CDF returns P(X <= x) under the same rate restrictions as PDF.
func (h HypoExp) CDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	if len(h.Rates) == 2 {
		return cdf2(h.Rates[0], h.Rates[1], x)
	}
	if as, ok := h.coeffs(); ok {
		s := 0.0
		for i, r := range h.Rates {
			s += as[i] * math.Exp(-r*x)
		}
		c := 1 - s
		switch {
		case c < 0:
			return 0
		case c > 1:
			return 1
		}
		return c
	}
	if allEqual(h.Rates) {
		return Erlang{K: len(h.Rates), Rate: h.Rates[0]}.CDF(x)
	}
	panic("dist: HypoExp.CDF with partially repeated rates is not supported")
}

// Sample draws as the sum of the stage exponentials.
func (h HypoExp) Sample(r *xrand.Rand) float64 {
	s := 0.0
	for _, rate := range h.Rates {
		s += r.Exp(rate)
	}
	return s
}

func allEqual(xs []float64) bool {
	for _, x := range xs[1:] {
		if !num.Same(x, xs[0]) {
			return false
		}
	}
	return true
}

// HyperExp is the hyperexponential distribution: an exponential whose
// rate is chosen once according to Probs. Probs must sum to one.
type HyperExp struct {
	Probs []float64
	Rates []float64
}

// NewHyperExp returns a hyperexponential distribution; it errors on
// mismatched lengths, invalid probabilities, or non-positive rates.
func NewHyperExp(probs, rates []float64) (HyperExp, error) {
	if len(probs) != len(rates) || len(probs) == 0 {
		return HyperExp{}, fmt.Errorf("dist: HyperExp needs equal non-zero lengths, got %d and %d", len(probs), len(rates))
	}
	sum := 0.0
	for _, p := range probs {
		if p < 0 {
			return HyperExp{}, fmt.Errorf("dist: HyperExp probability %v is negative", p)
		}
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		return HyperExp{}, fmt.Errorf("dist: HyperExp probabilities sum to %v, want 1", sum)
	}
	for _, r := range rates {
		if r <= 0 || math.IsNaN(r) || math.IsInf(r, 0) {
			return HyperExp{}, fmt.Errorf("dist: HyperExp rate must be positive and finite, got %v", r)
		}
	}
	h := HyperExp{Probs: make([]float64, len(probs)), Rates: make([]float64, len(rates))}
	copy(h.Probs, probs)
	copy(h.Rates, rates)
	return h, nil
}

// Mean returns sum p_i / r_i.
func (h HyperExp) Mean() float64 {
	s := 0.0
	for i, p := range h.Probs {
		s += p / h.Rates[i]
	}
	return s
}

// Var returns E[X^2] - E[X]^2 with E[X^2] = sum 2 p_i / r_i^2.
func (h HyperExp) Var() float64 {
	m := h.Mean()
	m2 := 0.0
	for i, p := range h.Probs {
		m2 += 2 * p / (h.Rates[i] * h.Rates[i])
	}
	return m2 - m*m
}

// CDF returns the mixture CDF at x.
func (h HyperExp) CDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	s := 0.0
	for i, p := range h.Probs {
		s += p * -math.Expm1(-h.Rates[i]*x)
	}
	return s
}

// Sample picks a branch, then draws that exponential.
func (h HyperExp) Sample(r *xrand.Rand) float64 {
	u := r.Float64()
	cum := 0.0
	for i, p := range h.Probs {
		cum += p
		if u < cum {
			return r.Exp(h.Rates[i])
		}
	}
	return r.Exp(h.Rates[len(h.Rates)-1])
}

// Mixture is a finite mixture of arbitrary component distributions.
// The M/M/c response time is Mixture{[Wc, 1-Wc], [Exp(mu), HypoExp(mu, c*mu-lambda)]}.
type Mixture struct {
	Probs      []float64
	Components []Dist
}

// NewMixture returns a mixture; it errors on mismatched lengths or
// probabilities not summing to one.
func NewMixture(probs []float64, comps []Dist) (Mixture, error) {
	if len(probs) != len(comps) || len(probs) == 0 {
		return Mixture{}, fmt.Errorf("dist: Mixture needs equal non-zero lengths, got %d and %d", len(probs), len(comps))
	}
	sum := 0.0
	for _, p := range probs {
		if p < -1e-12 {
			return Mixture{}, fmt.Errorf("dist: Mixture probability %v is negative", p)
		}
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		return Mixture{}, fmt.Errorf("dist: Mixture probabilities sum to %v, want 1", sum)
	}
	m := Mixture{Probs: make([]float64, len(probs)), Components: make([]Dist, len(comps))}
	copy(m.Probs, probs)
	copy(m.Components, comps)
	return m, nil
}

// Mean returns the probability-weighted component means.
func (m Mixture) Mean() float64 {
	s := 0.0
	for i, p := range m.Probs {
		s += p * m.Components[i].Mean()
	}
	return s
}

// Var uses the law of total variance.
func (m Mixture) Var() float64 {
	mean := m.Mean()
	s := 0.0
	for i, p := range m.Probs {
		mi := m.Components[i].Mean()
		s += p * (m.Components[i].Var() + mi*mi)
	}
	return s - mean*mean
}

// CDF returns the weighted component CDFs.
func (m Mixture) CDF(x float64) float64 {
	s := 0.0
	for i, p := range m.Probs {
		s += p * m.Components[i].CDF(x)
	}
	return s
}

// Sample picks a component, then samples it.
func (m Mixture) Sample(r *xrand.Rand) float64 {
	u := r.Float64()
	cum := 0.0
	for i, p := range m.Probs {
		cum += p
		if u < cum {
			return m.Components[i].Sample(r)
		}
	}
	return m.Components[len(m.Components)-1].Sample(r)
}
