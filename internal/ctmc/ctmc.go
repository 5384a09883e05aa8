// Package ctmc implements continuous-time Markov chains: construction of
// the generator matrix, transient solution by uniformization, absorption
// time distributions, and steady-state solution.
//
// It is the substitute for the SHARPE tool used in the paper: the density
// of the sample-average response time X̄n (paper eq. 4 and Fig. 5) is the
// absorption density of the concatenated chain of paper Fig. 4, which
// this package evaluates from transient state probabilities.
package ctmc

import (
	"fmt"
	"math"

	"rejuv/internal/linalg"
	"rejuv/internal/num"
)

// transition is one directed rate in the chain.
type transition struct {
	to   int
	rate float64
}

// Chain is a finite-state CTMC under construction or in use. Build one
// with New and AddRate; query it with Transient, AbsorptionCDF, or
// SteadyState. The zero value is unusable; use New.
type Chain struct {
	n        int
	out      [][]transition // outgoing transitions per state
	exitRate []float64      // total outgoing rate per state
}

// New returns a chain with n states, numbered 0..n-1, and no transitions.
// It panics if n <= 0.
func New(n int) *Chain {
	if n <= 0 {
		panic(fmt.Sprintf("ctmc: chain needs at least one state, got %d", n))
	}
	return &Chain{
		n:        n,
		out:      make([][]transition, n),
		exitRate: make([]float64, n),
	}
}

// NumStates returns the number of states.
func (c *Chain) NumStates() int { return c.n }

// AddRate adds a transition from one state to another with the given
// positive rate. Multiple calls accumulate. It returns an error on
// out-of-range states, self-loops, or non-positive rates.
func (c *Chain) AddRate(from, to int, rate float64) error {
	switch {
	case from < 0 || from >= c.n || to < 0 || to >= c.n:
		return fmt.Errorf("ctmc: transition %d->%d out of range [0,%d)", from, to, c.n)
	case from == to:
		return fmt.Errorf("ctmc: self-loop on state %d", from)
	case rate <= 0 || math.IsNaN(rate) || math.IsInf(rate, 0):
		return fmt.Errorf("ctmc: rate %v for %d->%d must be positive and finite", rate, from, to)
	}
	c.out[from] = append(c.out[from], transition{to: to, rate: rate})
	c.exitRate[from] += rate
	return nil
}

// MustAddRate is AddRate for statically known-good transitions; it panics
// on error.
func (c *Chain) MustAddRate(from, to int, rate float64) {
	if err := c.AddRate(from, to, rate); err != nil {
		panic(err)
	}
}

// ExitRate returns the total outgoing rate of a state. Absorbing states
// have exit rate zero.
func (c *Chain) ExitRate(state int) float64 { return c.exitRate[state] }

// IsAbsorbing reports whether the state has no outgoing transitions.
func (c *Chain) IsAbsorbing(state int) bool { return num.Zero(c.exitRate[state]) }

// uniformizationRate returns a rate dominating every exit rate. A strict
// margin keeps the DTMC aperiodic, which speeds convergence of the
// iterated products.
func (c *Chain) uniformizationRate() float64 {
	maxRate := 0.0
	for _, r := range c.exitRate {
		if r > maxRate {
			maxRate = r
		}
	}
	return maxRate * 1.02
}

// stepDTMC computes dst = src * P where P = I + Q/Lambda is the
// uniformized jump matrix. dst and src must not alias.
func (c *Chain) stepDTMC(dst, src []float64, lambda float64) {
	for i := range dst {
		dst[i] = src[i] * (1 - c.exitRate[i]/lambda)
	}
	for i, ts := range c.out {
		pi := src[i]
		if num.Zero(pi) {
			continue
		}
		for _, t := range ts {
			dst[t.to] += pi * t.rate / lambda
		}
	}
}

// Transient returns the state probability vector at time t given the
// initial distribution pi0, computed by uniformization with truncation
// error below eps (default 1e-12 when eps <= 0). It returns an error if
// pi0 has the wrong length or is not a distribution.
func (c *Chain) Transient(pi0 []float64, t, eps float64) ([]float64, error) {
	if err := c.checkDist(pi0); err != nil {
		return nil, err
	}
	if t < 0 || math.IsNaN(t) {
		return nil, fmt.Errorf("ctmc: transient time %v must be non-negative", t)
	}
	if eps <= 0 {
		eps = 1e-12
	}
	out := make([]float64, c.n)
	if num.Zero(t) {
		copy(out, pi0)
		return out, nil
	}
	lambda := c.uniformizationRate()
	if num.Zero(lambda) {
		// No transitions anywhere: distribution never moves.
		copy(out, pi0)
		return out, nil
	}
	lt := lambda * t
	cur := make([]float64, c.n)
	next := make([]float64, c.n)
	copy(cur, pi0)

	// Poisson weights in log space so large lambda*t cannot underflow
	// the whole sum: w_k = exp(-lt + k*log(lt) - lgamma(k+1)).
	logLT := math.Log(lt)
	cumulative := 0.0
	for k := 0; ; k++ {
		lg, _ := math.Lgamma(float64(k + 1))
		w := math.Exp(-lt + float64(k)*logLT - lg)
		if w > 0 {
			for i := range out {
				out[i] += w * cur[i]
			}
			cumulative += w
		}
		if 1-cumulative < eps {
			break
		}
		if float64(k) > lt+12*math.Sqrt(lt)+50 {
			// Beyond this many terms the remaining Poisson mass is far
			// below eps; bail out to guarantee termination.
			break
		}
		c.stepDTMC(next, cur, lambda)
		cur, next = next, cur
	}
	// Renormalize the truncated sum onto the simplex.
	if cumulative > 0 {
		for i := range out {
			out[i] /= cumulative
		}
	}
	return out, nil
}

// TransientBatch returns the state probability vector at each time in
// ts. It shares the uniformized DTMC power vectors pi0*P^k across all
// horizons, so evaluating a whole density grid costs barely more than
// the largest single horizon — the batch form behind mmc.AvgRTPDF.
func (c *Chain) TransientBatch(pi0 []float64, ts []float64, eps float64) ([][]float64, error) {
	if err := c.checkDist(pi0); err != nil {
		return nil, err
	}
	if eps <= 0 {
		eps = 1e-12
	}
	out := make([][]float64, len(ts))
	maxT := 0.0
	for i, t := range ts {
		if t < 0 || math.IsNaN(t) {
			return nil, fmt.Errorf("ctmc: transient time %v must be non-negative", t)
		}
		out[i] = make([]float64, c.n)
		if t > maxT {
			maxT = t
		}
	}
	lambda := c.uniformizationRate()
	if num.Zero(lambda) || num.Zero(maxT) {
		for i, t := range ts {
			if t >= 0 {
				copy(out[i], pi0)
			}
		}
		if num.Zero(lambda) {
			return out, nil
		}
	}

	lts := make([]float64, len(ts))
	logLTs := make([]float64, len(ts))
	cumulative := make([]float64, len(ts))
	for i, t := range ts {
		lts[i] = lambda * t
		if lts[i] > 0 {
			logLTs[i] = math.Log(lts[i])
		}
	}
	maxLT := lambda * maxT
	cur := make([]float64, c.n)
	next := make([]float64, c.n)
	copy(cur, pi0)

	for k := 0; ; k++ {
		lg, _ := math.Lgamma(float64(k + 1))
		done := true
		for i := range ts {
			if num.Zero(lts[i]) {
				// Zero horizon: all mass on k = 0.
				if k == 0 {
					copy(out[i], cur)
					cumulative[i] = 1
				}
				continue
			}
			if 1-cumulative[i] < eps {
				continue
			}
			done = false
			w := math.Exp(-lts[i] + float64(k)*logLTs[i] - lg)
			if w > 0 {
				row := out[i]
				for j, p := range cur {
					row[j] += w * p
				}
				cumulative[i] += w
			}
		}
		if done {
			break
		}
		if float64(k) > maxLT+12*math.Sqrt(maxLT)+50 {
			break
		}
		c.stepDTMC(next, cur, lambda)
		cur, next = next, cur
	}
	for i := range ts {
		if cumulative[i] > 0 {
			for j := range out[i] {
				out[i][j] /= cumulative[i]
			}
		}
	}
	return out, nil
}

// AbsorptionPDFBatch returns the absorption density into `state` at
// each time in ts, sharing the transient solve.
func (c *Chain) AbsorptionPDFBatch(pi0 []float64, state int, ts []float64, eps float64) ([]float64, error) {
	if state < 0 || state >= c.n {
		return nil, fmt.Errorf("ctmc: state %d out of range [0,%d)", state, c.n)
	}
	if !c.IsAbsorbing(state) {
		return nil, fmt.Errorf("ctmc: state %d is not absorbing", state)
	}
	ps, err := c.TransientBatch(pi0, ts, eps)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(ts))
	for i, p := range ps {
		flux := 0.0
		for from, trs := range c.out {
			for _, tr := range trs {
				if tr.to == state {
					flux += p[from] * tr.rate
				}
			}
		}
		out[i] = flux
	}
	return out, nil
}

func (c *Chain) checkDist(pi0 []float64) error {
	if len(pi0) != c.n {
		return fmt.Errorf("ctmc: initial vector length %d != %d states", len(pi0), c.n)
	}
	sum := 0.0
	for _, p := range pi0 {
		if p < 0 || math.IsNaN(p) {
			return fmt.Errorf("ctmc: initial probability %v is invalid", p)
		}
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		return fmt.Errorf("ctmc: initial probabilities sum to %v, want 1", sum)
	}
	return nil
}

// AbsorptionCDF returns P(absorbed in `state` by time t) from initial
// distribution pi0: the transient probability of the absorbing state.
// It returns an error if the state is not absorbing.
func (c *Chain) AbsorptionCDF(pi0 []float64, state int, t, eps float64) (float64, error) {
	if state < 0 || state >= c.n {
		return 0, fmt.Errorf("ctmc: state %d out of range [0,%d)", state, c.n)
	}
	if !c.IsAbsorbing(state) {
		return 0, fmt.Errorf("ctmc: state %d is not absorbing", state)
	}
	p, err := c.Transient(pi0, t, eps)
	if err != nil {
		return 0, err
	}
	return p[state], nil
}

// AbsorptionPDF returns the density of the absorption time into `state`
// at time t: the probability flux into the state, sum over predecessors
// i of p_i(t) * rate(i->state). This is exactly the paper's eq. (4).
func (c *Chain) AbsorptionPDF(pi0 []float64, state int, t, eps float64) (float64, error) {
	if state < 0 || state >= c.n {
		return 0, fmt.Errorf("ctmc: state %d out of range [0,%d)", state, c.n)
	}
	if !c.IsAbsorbing(state) {
		return 0, fmt.Errorf("ctmc: state %d is not absorbing", state)
	}
	p, err := c.Transient(pi0, t, eps)
	if err != nil {
		return 0, err
	}
	flux := 0.0
	for i, ts := range c.out {
		for _, tr := range ts {
			if tr.to == state {
				flux += p[i] * tr.rate
			}
		}
	}
	return flux, nil
}

// MeanTimeToAbsorption returns the expected time to reach any absorbing
// state from initial distribution pi0, solved from the linear system
// over transient states: (-Q_TT) m = 1. It returns an error if the chain
// has no absorbing state reachable structure to solve.
func (c *Chain) MeanTimeToAbsorption(pi0 []float64) (float64, error) {
	if err := c.checkDist(pi0); err != nil {
		return 0, err
	}
	transient := make([]int, 0, c.n)
	index := make([]int, c.n)
	for i := range index {
		index[i] = -1
	}
	for i := 0; i < c.n; i++ {
		if !c.IsAbsorbing(i) {
			index[i] = len(transient)
			transient = append(transient, i)
		}
	}
	if len(transient) == 0 {
		return 0, nil
	}
	nt := len(transient)
	a := linalg.NewMatrix(nt, nt)
	for row, i := range transient {
		a.Set(row, row, c.exitRate[i])
		for _, t := range c.out[i] {
			if j := index[t.to]; j >= 0 {
				a.Add(row, j, -t.rate)
			}
		}
	}
	m, err := linalg.Solve(a, linalg.Ones(nt))
	if err != nil {
		return 0, fmt.Errorf("ctmc: mean time to absorption: %w", err)
	}
	total := 0.0
	for row, i := range transient {
		total += pi0[i] * m[row]
	}
	return total, nil
}

// SteadyState returns the stationary distribution of an irreducible
// chain, solving pi*Q = 0 with sum(pi) = 1 by replacing one balance
// equation with the normalization constraint.
func (c *Chain) SteadyState() ([]float64, error) {
	// Build A^T x = b where the last balance equation is replaced by
	// normalization. Rows of A are the transposed generator.
	a := linalg.NewMatrix(c.n, c.n)
	for i, ts := range c.out {
		for _, t := range ts {
			a.Add(t.to, i, t.rate) // column i contributes into row t.to
		}
		a.Add(i, i, -c.exitRate[i])
	}
	b := make([]float64, c.n)
	for j := 0; j < c.n; j++ {
		a.Set(c.n-1, j, 1)
	}
	b[c.n-1] = 1
	pi, err := linalg.Solve(a, b)
	if err != nil {
		return nil, fmt.Errorf("ctmc: steady state: %w", err)
	}
	for i, p := range pi {
		if p < 0 && p > -1e-12 {
			pi[i] = 0
		} else if p < 0 {
			return nil, fmt.Errorf("ctmc: steady state has negative probability %v at state %d (chain not irreducible?)", p, i)
		}
	}
	return pi, nil
}
