package phasetype

import (
	"math"
	"testing"

	"rejuv/internal/dist"
	"rejuv/internal/linalg"
)

// series returns the PH of a series of exponential stages with the
// given rates: enter stage 1, pass each stage in turn, absorb after the
// last. One stage is the exponential distribution.
func series(t *testing.T, rates ...float64) *PH {
	t.Helper()
	m := len(rates)
	tm := linalg.NewMatrix(m, m)
	for i, r := range rates {
		tm.Set(i, i, -r)
		if i+1 < m {
			tm.Set(i, i+1, r)
		}
	}
	alpha := make([]float64, m)
	alpha[0] = 1
	ph, err := New(alpha, tm)
	if err != nil {
		t.Fatal(err)
	}
	return ph
}

func TestScaleDividesMeanAndVariance(t *testing.T) {
	ph := series(t, 1, 2)
	scaled, err := ph.Scale(4)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(scaled.Mean()-ph.Mean()/4) > 1e-12 {
		t.Fatalf("scaled mean = %v, want %v", scaled.Mean(), ph.Mean()/4)
	}
	if math.Abs(scaled.Var()-ph.Var()/16) > 1e-12 {
		t.Fatalf("scaled var = %v, want %v", scaled.Var(), ph.Var()/16)
	}
	if _, err := ph.Scale(0); err == nil {
		t.Fatal("Scale(0) accepted")
	}
}

func TestConvolveAddsMoments(t *testing.T) {
	a := series(t, 1)
	b := series(t, 3)
	sum, err := Convolve(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sum.Mean()-(1+1.0/3)) > 1e-12 {
		t.Fatalf("convolved mean = %v, want 4/3", sum.Mean())
	}
	if math.Abs(sum.Var()-(1+1.0/9)) > 1e-9 {
		t.Fatalf("convolved var = %v, want 10/9", sum.Var())
	}
	// Convolving two exponentials with distinct rates is the
	// two-stage hypoexponential.
	ref, err := dist.NewHypoExp(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{0.2, 1, 4} {
		pdf, err := sum.PDF(x, 0)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(pdf-ref.PDF(x)) > 1e-9 {
			t.Errorf("PDF(%v) = %v, want %v", x, pdf, ref.PDF(x))
		}
	}
}

func TestSampleMeanMoments(t *testing.T) {
	// E[X̄n] = E[X]; Var[X̄n] = Var[X]/n — the identities behind the
	// paper's Fig. 4 construction.
	base := series(t, 0.5, 2)
	for _, n := range []int{1, 2, 5, 10} {
		avg, err := base.SampleMean(n)
		if err != nil {
			t.Fatal(err)
		}
		if got := avg.NumPhases(); got != 2*n {
			t.Fatalf("n=%d: %d phases, want %d", n, got, 2*n)
		}
		if math.Abs(avg.Mean()-base.Mean()) > 1e-9 {
			t.Errorf("n=%d: mean %v, want %v", n, avg.Mean(), base.Mean())
		}
		if math.Abs(avg.Var()-base.Var()/float64(n)) > 1e-9 {
			t.Errorf("n=%d: var %v, want %v", n, avg.Var(), base.Var()/float64(n))
		}
	}
	if _, err := base.SampleMean(0); err == nil {
		t.Fatal("SampleMean(0) accepted")
	}
}

func TestCDFMonotoneAndNormalized(t *testing.T) {
	ph := series(t, 1, 0.5, 2)
	prev := 0.0
	for x := 0.0; x <= 30; x += 0.5 {
		cdf, err := ph.CDF(x, 0)
		if err != nil {
			t.Fatal(err)
		}
		if cdf < prev-1e-10 {
			t.Fatalf("CDF decreasing at %v", x)
		}
		prev = cdf
	}
	if prev < 0.999 {
		t.Fatalf("CDF(30) = %v, want ~1", prev)
	}
	if pdf, _ := ph.PDF(-1, 0); pdf != 0 {
		t.Fatal("PDF(-1) != 0")
	}
}

func TestNewValidation(t *testing.T) {
	okT := linalg.FromRows([][]float64{{-1}})
	tests := []struct {
		name  string
		alpha []float64
		t     *linalg.Matrix
	}{
		{"non-square", []float64{1}, linalg.NewMatrix(1, 2)},
		{"alpha length", []float64{1, 0}, okT},
		{"alpha sum", []float64{0.5}, okT},
		{"alpha negative", []float64{-1}, okT},
		{"diagonal non-negative", []float64{1}, linalg.FromRows([][]float64{{0}})},
		{"off-diagonal negative", []float64{1, 0},
			linalg.FromRows([][]float64{{-1, -0.5}, {0, -1}})},
		{"row sum positive", []float64{1, 0},
			linalg.FromRows([][]float64{{-1, 2}, {0, -1}})},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := New(tt.alpha, tt.t); err == nil {
				t.Errorf("New accepted invalid %s", tt.name)
			}
		})
	}
}

func TestExitVector(t *testing.T) {
	ph := series(t, 2, 3)
	exit := ph.ExitVector()
	// Stage 1 exits only into stage 2 (no absorption); stage 2 absorbs
	// at its full rate.
	if exit[0] != 0 || exit[1] != 3 {
		t.Fatalf("exit vector = %v, want [0 3]", exit)
	}
}

func TestNewCopiesInputs(t *testing.T) {
	alpha := []float64{1}
	tm := linalg.FromRows([][]float64{{-2}})
	ph, err := New(alpha, tm)
	if err != nil {
		t.Fatal(err)
	}
	alpha[0] = 0.3
	tm.Set(0, 0, -99)
	if ph.Alpha[0] != 1 || ph.T.At(0, 0) != -2 {
		t.Fatal("New shares storage with its arguments")
	}
}
