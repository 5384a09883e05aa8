package ctmc

import (
	"math"
	"testing"
)

func TestTwoStateAbsorption(t *testing.T) {
	// 0 -> 1 at rate r: absorption time is Exp(r).
	const r = 0.7
	c := New(2)
	c.MustAddRate(0, 1, r)
	pi0 := []float64{1, 0}
	for _, x := range []float64{0.1, 1, 3, 10} {
		cdf, err := c.AbsorptionCDF(pi0, 1, x, 0)
		if err != nil {
			t.Fatal(err)
		}
		want := 1 - math.Exp(-r*x)
		if math.Abs(cdf-want) > 1e-9 {
			t.Errorf("CDF(%v) = %v, want %v", x, cdf, want)
		}
		pdf, err := c.AbsorptionPDF(pi0, 1, x, 0)
		if err != nil {
			t.Fatal(err)
		}
		if wantPDF := r * math.Exp(-r*x); math.Abs(pdf-wantPDF) > 1e-9 {
			t.Errorf("PDF(%v) = %v, want %v", x, pdf, wantPDF)
		}
	}
}

func TestSeriesChainIsHypoexponential(t *testing.T) {
	// 0 -> 1 -> 2 with distinct rates: absorption is hypoexponential,
	// CDF = 1 - (r2 e^{-r1 x} - r1 e^{-r2 x})/(r2 - r1).
	const r1, r2 = 1.0, 3.0
	c := New(3)
	c.MustAddRate(0, 1, r1)
	c.MustAddRate(1, 2, r2)
	pi0 := []float64{1, 0, 0}
	for _, x := range []float64{0.2, 1, 2.5} {
		got, err := c.AbsorptionCDF(pi0, 2, x, 0)
		if err != nil {
			t.Fatal(err)
		}
		want := 1 - (r2*math.Exp(-r1*x)-r1*math.Exp(-r2*x))/(r2-r1)
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("CDF(%v) = %v, want %v", x, got, want)
		}
	}
}

func TestTransientConservesProbability(t *testing.T) {
	// A small cyclic chain: probabilities must stay on the simplex at
	// every horizon.
	c := New(3)
	c.MustAddRate(0, 1, 2)
	c.MustAddRate(1, 2, 1)
	c.MustAddRate(2, 0, 0.5)
	pi0 := []float64{0.2, 0.5, 0.3}
	for _, horizon := range []float64{0, 0.01, 0.5, 5, 100} {
		p, err := c.Transient(pi0, horizon, 0)
		if err != nil {
			t.Fatal(err)
		}
		sum := 0.0
		for _, v := range p {
			if v < -1e-12 {
				t.Fatalf("negative probability %v at t=%v", v, horizon)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("probabilities sum to %v at t=%v", sum, horizon)
		}
	}
}

func TestTransientZeroTimeIsInitial(t *testing.T) {
	c := New(2)
	c.MustAddRate(0, 1, 1)
	pi0 := []float64{0.4, 0.6}
	p, err := c.Transient(pi0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p[0] != 0.4 || p[1] != 0.6 {
		t.Fatalf("Transient(0) = %v, want initial %v", p, pi0)
	}
}

func TestTransientConvergesToSteadyState(t *testing.T) {
	// Birth-death chain: transient at a long horizon matches SteadyState.
	c := New(3)
	c.MustAddRate(0, 1, 1.0)
	c.MustAddRate(1, 0, 2.0)
	c.MustAddRate(1, 2, 1.0)
	c.MustAddRate(2, 1, 2.0)
	ss, err := c.SteadyState()
	if err != nil {
		t.Fatal(err)
	}
	p, err := c.Transient([]float64{1, 0, 0}, 200, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ss {
		if math.Abs(p[i]-ss[i]) > 1e-8 {
			t.Fatalf("transient %v has not converged to steady state %v", p, ss)
		}
	}
	// Detailed balance for this birth-death chain: pi_{k+1} = pi_k / 2.
	if math.Abs(ss[1]-ss[0]/2) > 1e-12 || math.Abs(ss[2]-ss[1]/2) > 1e-12 {
		t.Fatalf("steady state %v violates detailed balance", ss)
	}
}

func TestMeanTimeToAbsorption(t *testing.T) {
	// Series chain: expected absorption time is the sum of stage means.
	c := New(3)
	c.MustAddRate(0, 1, 2)
	c.MustAddRate(1, 2, 0.5)
	got, err := c.MeanTimeToAbsorption([]float64{1, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if want := 0.5 + 2.0; math.Abs(got-want) > 1e-12 {
		t.Fatalf("mean absorption time = %v, want %v", got, want)
	}
	// Starting from the second stage skips the first mean.
	got, err = c.MeanTimeToAbsorption([]float64{0, 1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-2.0) > 1e-12 {
		t.Fatalf("mean from stage 2 = %v, want 2", got)
	}
}

func TestLargeUniformizationRate(t *testing.T) {
	// Stress the Poisson log-space weights: rates that make lambda*t
	// huge must neither underflow to zero mass nor lose normalization.
	c := New(2)
	c.MustAddRate(0, 1, 50)
	cdf, err := c.AbsorptionCDF([]float64{1, 0}, 1, 20, 0) // lambda*t ~ 1000
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cdf-1) > 1e-9 {
		t.Fatalf("CDF(20) = %v, want ~1", cdf)
	}
	mid, err := c.AbsorptionCDF([]float64{1, 0}, 1, 0.01, 0)
	if err != nil {
		t.Fatal(err)
	}
	if want := 1 - math.Exp(-50*0.01); math.Abs(mid-want) > 1e-9 {
		t.Fatalf("CDF(0.01) = %v, want %v", mid, want)
	}
}

func TestValidationErrors(t *testing.T) {
	c := New(2)
	tests := []struct {
		name     string
		from, to int
		rate     float64
	}{
		{"from out of range", -1, 0, 1},
		{"to out of range", 0, 5, 1},
		{"self loop", 1, 1, 1},
		{"zero rate", 0, 1, 0},
		{"negative rate", 0, 1, -2},
		{"NaN rate", 0, 1, math.NaN()},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := c.AddRate(tt.from, tt.to, tt.rate); err == nil {
				t.Errorf("AddRate(%d,%d,%v) accepted", tt.from, tt.to, tt.rate)
			}
		})
	}
}

func TestBadInitialDistribution(t *testing.T) {
	c := New(2)
	c.MustAddRate(0, 1, 1)
	if _, err := c.Transient([]float64{1}, 1, 0); err == nil {
		t.Error("wrong-length initial vector accepted")
	}
	if _, err := c.Transient([]float64{0.5, 0.4}, 1, 0); err == nil {
		t.Error("non-normalized initial vector accepted")
	}
	if _, err := c.Transient([]float64{-0.5, 1.5}, 1, 0); err == nil {
		t.Error("negative initial probability accepted")
	}
	if _, err := c.Transient([]float64{1, 0}, -1, 0); err == nil {
		t.Error("negative time accepted")
	}
}

func TestAbsorptionRequiresAbsorbingState(t *testing.T) {
	c := New(2)
	c.MustAddRate(0, 1, 1)
	c.MustAddRate(1, 0, 1)
	if _, err := c.AbsorptionCDF([]float64{1, 0}, 1, 1, 0); err == nil {
		t.Error("AbsorptionCDF on a non-absorbing state accepted")
	}
	if _, err := c.AbsorptionPDF([]float64{1, 0}, 1, 1, 0); err == nil {
		t.Error("AbsorptionPDF on a non-absorbing state accepted")
	}
}

func TestMMcNumberInSystemSteadyState(t *testing.T) {
	// Truncated M/M/2 birth-death chain: steady state must match the
	// closed-form pi_k. lambda=1, mu=1, c=2 => rho=0.5.
	const lambda, mu = 1.0, 1.0
	const nStates = 30
	c := New(nStates)
	for k := 0; k < nStates-1; k++ {
		c.MustAddRate(k, k+1, lambda)
		served := math.Min(float64(k+1), 2)
		c.MustAddRate(k+1, k, served*mu)
	}
	pi, err := c.SteadyState()
	if err != nil {
		t.Fatal(err)
	}
	// Closed form: pi1 = pi0 * lambda/mu, pi_{k+1} = pi_k * lambda/(2mu) beyond.
	if math.Abs(pi[1]-pi[0]) > 1e-9 {
		t.Fatalf("pi1 = %v, want pi0 = %v", pi[1], pi[0])
	}
	for k := 2; k < 10; k++ {
		if math.Abs(pi[k]-pi[k-1]/2) > 1e-9 {
			t.Fatalf("pi[%d] = %v, want half of pi[%d] = %v", k, pi[k], k-1, pi[k-1])
		}
	}
}

func TestAbsorptionPDFIntegratesToOne(t *testing.T) {
	// Trapezoid integral of the absorption density over a wide window.
	c := New(3)
	c.MustAddRate(0, 1, 1.2)
	c.MustAddRate(1, 2, 0.8)
	pi0 := []float64{1, 0, 0}
	const steps = 400
	const hi = 30.0
	h := hi / steps
	sum := 0.0
	for i := 0; i <= steps; i++ {
		w := 1.0
		if i == 0 || i == steps {
			w = 0.5
		}
		pdf, err := c.AbsorptionPDF(pi0, 2, float64(i)*h, 0)
		if err != nil {
			t.Fatal(err)
		}
		sum += w * pdf
	}
	if integral := sum * h; math.Abs(integral-1) > 1e-3 {
		t.Fatalf("absorption density integrates to %v", integral)
	}
}

func TestAbsorptionMatchesSimulatedQuantiles(t *testing.T) {
	// Cross-check CDF against the analytic normal-free route: compare
	// the absorption CDF of a single exponential stage with the closed
	// form at its own quantiles.
	c := New(2)
	c.MustAddRate(0, 1, 0.2)
	for _, p := range []float64{0.25, 0.5, 0.9} {
		x := -math.Log(1-p) / 0.2
		got, err := c.AbsorptionCDF([]float64{1, 0}, 1, x, 0)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-p) > 1e-9 {
			t.Errorf("CDF at %v-quantile = %v", p, got)
		}
	}
}

func TestTransientBatchMatchesSingle(t *testing.T) {
	c := New(3)
	c.MustAddRate(0, 1, 1.3)
	c.MustAddRate(1, 2, 0.6)
	c.MustAddRate(1, 0, 0.2)
	pi0 := []float64{0.7, 0.3, 0}
	ts := []float64{0, 0.5, 2, 7.3, 0.5} // unsorted, with duplicates and zero
	batch, err := c.TransientBatch(pi0, ts, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, horizon := range ts {
		single, err := c.Transient(pi0, horizon, 0)
		if err != nil {
			t.Fatal(err)
		}
		for j := range single {
			if math.Abs(batch[i][j]-single[j]) > 1e-10 {
				t.Fatalf("t=%v state %d: batch %v, single %v", horizon, j, batch[i][j], single[j])
			}
		}
	}
}

func TestAbsorptionPDFBatchMatchesSingle(t *testing.T) {
	c := New(3)
	c.MustAddRate(0, 1, 2)
	c.MustAddRate(1, 2, 0.8)
	pi0 := []float64{1, 0, 0}
	ts := []float64{0.1, 1, 4, 9}
	batch, err := c.AbsorptionPDFBatch(pi0, 2, ts, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, horizon := range ts {
		single, err := c.AbsorptionPDF(pi0, 2, horizon, 0)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(batch[i]-single) > 1e-10 {
			t.Fatalf("t=%v: batch %v, single %v", horizon, batch[i], single)
		}
	}
	if _, err := c.AbsorptionPDFBatch(pi0, 1, ts, 0); err == nil {
		t.Fatal("non-absorbing state accepted")
	}
}

func TestTransientBatchValidation(t *testing.T) {
	c := New(2)
	c.MustAddRate(0, 1, 1)
	if _, err := c.TransientBatch([]float64{1, 0}, []float64{1, -2}, 0); err == nil {
		t.Fatal("negative time accepted")
	}
	if _, err := c.TransientBatch([]float64{0.5}, []float64{1}, 0); err == nil {
		t.Fatal("bad initial distribution accepted")
	}
}
