// Package phasetype implements continuous phase-type distributions
// PH(alpha, T): the distribution of the time to absorption in a CTMC
// with transient sub-generator T and initial distribution alpha.
//
// The paper represents the M/M/c response time as a phase-type
// distribution (Fig. 2/3) and the sample average X̄n as absorption in a
// concatenation of n time-scaled copies (Fig. 4). Scale and Convolve
// construct exactly those chains; density and CDF are evaluated through
// the ctmc package's uniformization solver.
package phasetype

import (
	"fmt"
	"math"

	"rejuv/internal/ctmc"
	"rejuv/internal/linalg"
)

// PH is a phase-type distribution with m transient phases.
// Alpha is the initial probability over phases (it must sum to 1; point
// mass at zero is not supported because the paper's distributions have
// none). T is the m x m sub-generator: T[i][j] >= 0 for i != j,
// T[i][i] < 0, row sums <= 0. The exit rate of phase i is
// -sum_j T[i][j].
type PH struct {
	Alpha []float64
	T     *linalg.Matrix
}

// New validates and returns a PH(alpha, T). The returned PH shares no
// storage with the arguments.
func New(alpha []float64, t *linalg.Matrix) (*PH, error) {
	if t.Rows != t.Cols {
		return nil, fmt.Errorf("phasetype: T must be square, got %dx%d", t.Rows, t.Cols)
	}
	if len(alpha) != t.Rows {
		return nil, fmt.Errorf("phasetype: alpha length %d != %d phases", len(alpha), t.Rows)
	}
	sum := 0.0
	for _, a := range alpha {
		if a < 0 || math.IsNaN(a) {
			return nil, fmt.Errorf("phasetype: alpha entry %v is invalid", a)
		}
		sum += a
	}
	if math.Abs(sum-1) > 1e-9 {
		return nil, fmt.Errorf("phasetype: alpha sums to %v, want 1", sum)
	}
	for i := 0; i < t.Rows; i++ {
		rowSum := 0.0
		for j := 0; j < t.Cols; j++ {
			v := t.At(i, j)
			if i == j {
				if v >= 0 {
					return nil, fmt.Errorf("phasetype: diagonal T[%d][%d]=%v must be negative", i, j, v)
				}
			} else if v < 0 {
				return nil, fmt.Errorf("phasetype: off-diagonal T[%d][%d]=%v must be non-negative", i, j, v)
			}
			rowSum += v
		}
		if rowSum > 1e-9 {
			return nil, fmt.Errorf("phasetype: row %d of T sums to %v > 0", i, rowSum)
		}
	}
	a := make([]float64, len(alpha))
	copy(a, alpha)
	return &PH{Alpha: a, T: t.Clone()}, nil
}

// NumPhases returns the number of transient phases.
func (p *PH) NumPhases() int { return len(p.Alpha) }

// ExitVector returns t0 = -T*1: the absorption rate from each phase.
func (p *PH) ExitVector() []float64 {
	m := p.NumPhases()
	out := make([]float64, m)
	for i := 0; i < m; i++ {
		s := 0.0
		for j := 0; j < m; j++ {
			s += p.T.At(i, j)
		}
		out[i] = -s
		if out[i] < 0 && out[i] > -1e-12 {
			out[i] = 0
		}
	}
	return out
}

// moments returns E[X] and E[X^2] from the linear systems
// (-T) y1 = 1, (-T) y2 = y1, E[X] = alpha.y1, E[X^2] = 2 alpha.y2.
func (p *PH) moments() (m1, m2 float64, err error) {
	negT := p.T.Clone().Scale(-1)
	f, err := linalg.Factor(negT)
	if err != nil {
		return 0, 0, fmt.Errorf("phasetype: moments: %w", err)
	}
	y1, err := f.Solve(linalg.Ones(p.NumPhases()))
	if err != nil {
		return 0, 0, fmt.Errorf("phasetype: moments: %w", err)
	}
	y2, err := f.Solve(y1)
	if err != nil {
		return 0, 0, fmt.Errorf("phasetype: moments: %w", err)
	}
	return linalg.Dot(p.Alpha, y1), 2 * linalg.Dot(p.Alpha, y2), nil
}

// Mean returns the expected value. It panics only on an internal
// inconsistency (a validated PH always has invertible -T).
func (p *PH) Mean() float64 {
	m1, _, err := p.moments()
	if err != nil {
		panic(err)
	}
	return m1
}

// Var returns the variance.
func (p *PH) Var() float64 {
	m1, m2, err := p.moments()
	if err != nil {
		panic(err)
	}
	return m2 - m1*m1
}

// Scale returns the distribution of X/r: every rate multiplied by r.
// It errors on a non-positive factor.
func (p *PH) Scale(r float64) (*PH, error) {
	if r <= 0 || math.IsNaN(r) || math.IsInf(r, 0) {
		return nil, fmt.Errorf("phasetype: scale factor must be positive and finite, got %v", r)
	}
	return New(p.Alpha, p.T.Clone().Scale(r))
}

// Convolve returns the distribution of the sum X_a + X_b: b's chain is
// entered, with distribution b.Alpha, at the moment a absorbs. This is
// the concatenation construction of the paper's Fig. 4.
func Convolve(a, b *PH) (*PH, error) {
	na, nb := len(a.Alpha), len(b.Alpha)
	exitA := a.ExitVector()
	t := linalg.NewMatrix(na+nb, na+nb)
	for i := 0; i < na; i++ {
		for j := 0; j < na; j++ {
			t.Set(i, j, a.T.At(i, j))
		}
		for j := 0; j < nb; j++ {
			t.Set(i, na+j, exitA[i]*b.Alpha[j])
		}
	}
	for i := 0; i < nb; i++ {
		for j := 0; j < nb; j++ {
			t.Set(na+i, na+j, b.T.At(i, j))
		}
	}
	alpha := make([]float64, na+nb)
	copy(alpha, a.Alpha)
	return New(alpha, t)
}

// SampleMean returns the distribution of the average of n independent
// copies of p: the n-fold convolution of p scaled by n (each copy's
// rates multiplied by n). For the M/M/c response time this reproduces
// the chain of the paper's Fig. 4 exactly.
func (p *PH) SampleMean(n int) (*PH, error) {
	if n <= 0 {
		return nil, fmt.Errorf("phasetype: sample size must be positive, got %d", n)
	}
	scaled, err := p.Scale(float64(n))
	if err != nil {
		return nil, err
	}
	out := scaled
	for i := 1; i < n; i++ {
		out, err = Convolve(out, scaled)
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Chain embeds the PH into a CTMC with one extra absorbing state (the
// last state) and returns the chain plus the initial distribution.
func (p *PH) Chain() (*ctmc.Chain, []float64) {
	m := p.NumPhases()
	c := ctmc.New(m + 1)
	exit := p.ExitVector()
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			if i != j {
				if r := p.T.At(i, j); r > 0 {
					c.MustAddRate(i, j, r)
				}
			}
		}
		if exit[i] > 0 {
			c.MustAddRate(i, m, exit[i])
		}
	}
	pi0 := make([]float64, m+1)
	copy(pi0, p.Alpha)
	return c, pi0
}

// PDF returns the density at x, evaluated as the absorption flux of the
// embedded CTMC (uniformization, truncation error below eps; eps <= 0
// selects the default).
func (p *PH) PDF(x, eps float64) (float64, error) {
	if x < 0 {
		return 0, nil
	}
	c, pi0 := p.Chain()
	return c.AbsorptionPDF(pi0, p.NumPhases(), x, eps)
}

// PDFBatch returns the density at every point of xs in one pass,
// sharing the uniformization work across the grid. Negative points get
// density zero.
func (p *PH) PDFBatch(xs []float64, eps float64) ([]float64, error) {
	ts := make([]float64, len(xs))
	for i, x := range xs {
		if x < 0 {
			ts[i] = 0 // evaluated but discarded below
		} else {
			ts[i] = x
		}
	}
	c, pi0 := p.Chain()
	dens, err := c.AbsorptionPDFBatch(pi0, p.NumPhases(), ts, eps)
	if err != nil {
		return nil, err
	}
	for i, x := range xs {
		if x < 0 {
			dens[i] = 0
		}
	}
	return dens, nil
}

// CDF returns P(X <= x) via the embedded CTMC.
func (p *PH) CDF(x, eps float64) (float64, error) {
	if x < 0 {
		return 0, nil
	}
	c, pi0 := p.Chain()
	return c.AbsorptionCDF(pi0, p.NumPhases(), x, eps)
}
