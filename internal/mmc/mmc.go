// Package mmc implements the analytical M/M/c queueing results the paper
// builds its algorithms on: the Erlang formulas, the response-time
// distribution of a steady-state FCFS M/M/c system (paper eq. 1), its
// mean and variance (eq. 2, 3), the phase-type representation (Fig. 2/3),
// and the distribution of the sample-average response time X̄n via the
// concatenated absorbing CTMC (Fig. 4, eq. 4).
package mmc

import (
	"fmt"
	"math"

	"rejuv/internal/dist"
	"rejuv/internal/num"
	"rejuv/internal/phasetype"
	"rejuv/internal/stats"
)

// System is a stable FCFS M/M/c queue.
type System struct {
	C      int     // number of servers
	Lambda float64 // arrival rate
	Mu     float64 // per-server service rate
}

// New validates and returns an M/M/c system. The system must be stable
// (lambda < c*mu); an unstable system has no steady-state response time,
// so every quantity this package computes would be undefined.
func New(c int, lambda, mu float64) (System, error) {
	switch {
	case c <= 0:
		return System{}, fmt.Errorf("mmc: need at least one server, got %d", c)
	case mu <= 0 || math.IsNaN(mu) || math.IsInf(mu, 0):
		return System{}, fmt.Errorf("mmc: service rate must be positive and finite, got %v", mu)
	case lambda <= 0 || math.IsNaN(lambda) || math.IsInf(lambda, 0):
		return System{}, fmt.Errorf("mmc: arrival rate must be positive and finite, got %v", lambda)
	case lambda >= float64(c)*mu:
		return System{}, fmt.Errorf("mmc: unstable system: lambda=%v >= c*mu=%v", lambda, float64(c)*mu)
	}
	return System{C: c, Lambda: lambda, Mu: mu}, nil
}

// Rho returns the traffic intensity lambda/(c*mu).
func (s System) Rho() float64 { return s.Lambda / (float64(s.C) * s.Mu) }

// OfferedLoad returns lambda/mu, the load in "CPUs" used as the x-axis
// of the paper's figures.
func (s System) OfferedLoad() float64 { return s.Lambda / s.Mu }

// ErlangB returns the Erlang-B blocking probability for a offered
// erlangs on c servers, via the numerically stable recurrence.
func ErlangB(c int, a float64) float64 {
	b := 1.0
	for k := 1; k <= c; k++ {
		b = a * b / (float64(k) + a*b)
	}
	return b
}

// ErlangC returns the steady-state probability that an arriving job must
// wait (all c servers busy), computed from Erlang-B for numerical
// stability at large c.
func (s System) ErlangC() float64 {
	a := s.Lambda / s.Mu
	b := ErlangB(s.C, a)
	rho := s.Rho()
	return b / (1 - rho*(1-b))
}

// Wc returns the steady-state probability that fewer than c jobs are in
// the system — the mixing weight of the paper's eq. (1).
func (s System) Wc() float64 { return 1 - s.ErlangC() }

// RTMean returns the expected steady-state response time, paper eq. (2):
// 1/mu + (1-Wc)/(c*mu - lambda).
func (s System) RTMean() float64 {
	return 1/s.Mu + (1-s.Wc())/(float64(s.C)*s.Mu-s.Lambda)
}

// RTVar returns the variance of the steady-state response time, paper
// eq. (3): 1/mu^2 + (1-Wc^2)/(c*mu-lambda)^2.
func (s System) RTVar() float64 {
	wc := s.Wc()
	d := float64(s.C)*s.Mu - s.Lambda
	return 1/(s.Mu*s.Mu) + (1-wc*wc)/(d*d)
}

// RTStdDev returns the standard deviation of the response time.
func (s System) RTStdDev() float64 { return math.Sqrt(s.RTVar()) }

// drainRate returns c*mu - lambda, the rate of the second phase of the
// conditional (queueing) response time.
func (s System) drainRate() float64 { return float64(s.C)*s.Mu - s.Lambda }

// RTCDF returns the steady-state response-time CDF, paper eq. (1).
// The formula's removable singularity at lambda = (c-1)*mu is handled by
// switching to the equal-rate (Erlang) form of the conditional branch.
func (s System) RTCDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return s.RTDist().CDF(x)
}

// RTQuantile returns the p-quantile of the steady-state response time,
// inverting eq. (1) by bisection. It errors for p outside [0, 1).
func (s System) RTQuantile(p float64) (float64, error) {
	if p < 0 || p >= 1 {
		return 0, fmt.Errorf("mmc: quantile level %v outside [0,1)", p)
	}
	if num.Zero(p) {
		return 0, nil
	}
	lo, hi := 0.0, 1.0
	for s.RTCDF(hi) < p {
		hi *= 2
		if hi > 1e12 {
			return 0, fmt.Errorf("mmc: quantile search diverged at p=%v", p)
		}
	}
	for i := 0; i < 200 && hi-lo > 1e-12*hi; i++ {
		mid := (lo + hi) / 2
		if s.RTCDF(mid) < p {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2, nil
}

// WaitMean returns the expected queueing delay ErlangC/(c*mu-lambda).
func (s System) WaitMean() float64 {
	return s.ErlangC() / s.drainRate()
}

// RTDist returns the response time as a mixture distribution: with
// probability Wc a plain Exp(mu) service, otherwise Exp(mu) service plus
// an Exp(c*mu-lambda) queueing phase (the hypoexponential branch of
// paper Fig. 2).
func (s System) RTDist() dist.Mixture {
	wc := s.Wc()
	service := dist.Exponential{Rate: s.Mu}
	queued, err := dist.NewHypoExp(s.Mu, s.drainRate())
	if err != nil {
		panic(err) // unreachable: rates validated in New
	}
	m, err := dist.NewMixture([]float64{wc, 1 - wc}, []dist.Dist{service, queued})
	if err != nil {
		panic(err) // unreachable: wc in [0,1] by construction
	}
	return m
}

// RTPhaseType returns the two-phase PH representation of the response
// time matching the paper's Fig. 3 CTMC: from phase 1 (service) the job
// absorbs at rate mu*Wc or continues to phase 2 (drain) at rate
// mu*(1-Wc); phase 2 absorbs at rate c*mu-lambda.
func (s System) RTPhaseType() (*phasetype.PH, error) {
	wc := s.Wc()
	t := [][]float64{
		{-s.Mu, s.Mu * (1 - wc)},
		{0, -s.drainRate()},
	}
	return phasetype.New([]float64{1, 0}, matrixFromRows(t))
}

// AvgRTPhaseType returns the phase-type distribution of the sample mean
// X̄n of n independent response times: the 2n+1-state concatenated chain
// of the paper's Fig. 4 (2n transient phases plus absorption).
func (s System) AvgRTPhaseType(n int) (*phasetype.PH, error) {
	ph, err := s.RTPhaseType()
	if err != nil {
		return nil, err
	}
	return ph.SampleMean(n)
}

// AvgRTPDF returns the density of X̄n at each point in xs — the paper's
// eq. (4), evaluated by uniformization of the Fig. 4 chain.
func (s System) AvgRTPDF(n int, xs []float64) ([]float64, error) {
	ph, err := s.AvgRTPhaseType(n)
	if err != nil {
		return nil, err
	}
	out, err := ph.PDFBatch(xs, 0)
	if err != nil {
		return nil, fmt.Errorf("mmc: X̄%d density: %w", n, err)
	}
	return out, nil
}

// AvgRTCDF returns P(X̄n <= x).
func (s System) AvgRTCDF(n int, x float64) (float64, error) {
	ph, err := s.AvgRTPhaseType(n)
	if err != nil {
		return 0, err
	}
	return ph.CDF(x, 0)
}

// NormalApprox returns the mean and standard deviation of the normal
// approximation to X̄n used in the paper's Fig. 5 overlays:
// mean mu_X and sigma_X/sqrt(n).
func (s System) NormalApprox(n int) (mean, sd float64) {
	return s.RTMean(), s.RTStdDev() / math.Sqrt(float64(n))
}

// TailBeyondNormalQuantile returns the true probability mass of X̄n to
// the right of the p-quantile of its approximating normal distribution.
// For the paper's configuration (c=16, lambda=1.6, mu=0.2, p=0.975) this
// is 3.69% for n=15 and 3.37% for n=30 — the inflated false-alarm
// probabilities discussed in Section 4.1.
func (s System) TailBeyondNormalQuantile(n int, p float64) (float64, error) {
	if p <= 0 || p >= 1 {
		return 0, fmt.Errorf("mmc: quantile level %v outside (0,1)", p)
	}
	mean, sd := s.NormalApprox(n)
	q := stats.NormQuantile(p, mean, sd)
	cdf, err := s.AvgRTCDF(n, q)
	if err != nil {
		return 0, err
	}
	return 1 - cdf, nil
}
