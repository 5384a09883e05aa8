package dist

import (
	"math"
	"testing"

	"rejuv/internal/xrand"
)

// checkMoments samples the distribution and compares empirical moments
// with the analytical ones.
func checkMoments(t *testing.T, d Dist, n int, tol float64) {
	t.Helper()
	r := xrand.New(77)
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := d.Sample(r)
		if v < 0 {
			t.Fatalf("negative sample %v", v)
		}
		sum += v
		sumSq += v * v
	}
	mean := sum / float64(n)
	variance := sumSq/float64(n) - mean*mean
	if want := d.Mean(); math.Abs(mean-want) > tol*math.Max(1, want) {
		t.Errorf("sampled mean %v, analytical %v", mean, want)
	}
	if want := d.Var(); want > 0 && math.Abs(variance-want) > 3*tol*math.Max(1, want) {
		t.Errorf("sampled variance %v, analytical %v", variance, want)
	}
}

// checkPDFIsCDFDerivative compares the density with a central difference
// of the CDF at several points.
func checkPDFIsCDFDerivative(t *testing.T, d interface {
	PDF(x float64) float64
	CDF(x float64) float64
}, points []float64) {
	t.Helper()
	const h = 1e-6
	for _, x := range points {
		num := (d.CDF(x+h) - d.CDF(x-h)) / (2 * h)
		if math.Abs(num-d.PDF(x)) > 1e-4*math.Max(1, d.PDF(x)) {
			t.Errorf("at x=%v: numeric derivative %v, pdf %v", x, num, d.PDF(x))
		}
	}
}

// checkCDFShape verifies the CDF is 0 at the origin-side, monotone, and
// approaches 1.
func checkCDFShape(t *testing.T, d Dist, far float64) {
	t.Helper()
	if got := d.CDF(-1); got != 0 {
		t.Errorf("CDF(-1) = %v, want 0", got)
	}
	prev := 0.0
	for x := 0.0; x <= far; x += far / 200 {
		c := d.CDF(x)
		if c < prev-1e-12 {
			t.Fatalf("CDF decreasing at %v: %v < %v", x, c, prev)
		}
		if c < 0 || c > 1 {
			t.Fatalf("CDF(%v) = %v outside [0,1]", x, c)
		}
		prev = c
	}
	if tail := 1 - d.CDF(far); tail > 0.01 {
		t.Errorf("CDF(%v) leaves %v mass unexplored", far, tail)
	}
}

func TestExponential(t *testing.T) {
	e := Exponential{Rate: 0.2}
	if e.Mean() != 5 || math.Abs(e.Var()-25) > 1e-12 {
		t.Fatalf("mean=%v var=%v, want 5 and 25", e.Mean(), e.Var())
	}
	if got := e.CDF(5); math.Abs(got-(1-math.Exp(-1))) > 1e-15 {
		t.Fatalf("CDF(mean) = %v, want 1-1/e", got)
	}
	checkMoments(t, e, 300_000, 0.01)
	checkCDFShape(t, e, 40)
}

func TestExponentialQuantileRoundTrip(t *testing.T) {
	e := Exponential{Rate: 0.7}
	for _, p := range []float64{0, 0.1, 0.5, 0.9, 0.999} {
		if got := e.CDF(e.Quantile(p)); math.Abs(got-p) > 1e-12 {
			t.Errorf("CDF(Quantile(%v)) = %v", p, got)
		}
	}
}

func TestErlang(t *testing.T) {
	e, err := NewErlang(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if e.Mean() != 2 || e.Var() != 1 {
		t.Fatalf("mean=%v var=%v, want 2 and 1", e.Mean(), e.Var())
	}
	checkMoments(t, e, 300_000, 0.01)
	checkPDFIsCDFDerivative(t, e, []float64{0.5, 1, 2, 4})
	checkCDFShape(t, e, 12)
}

func TestErlangShapeOneIsExponential(t *testing.T) {
	er, _ := NewErlang(1, 0.5)
	ex := Exponential{Rate: 0.5}
	for _, x := range []float64{0, 0.5, 2, 10} {
		if want := ex.Rate * math.Exp(-ex.Rate*x); math.Abs(er.PDF(x)-want) > 1e-12 {
			t.Errorf("PDF differs at %v: %v vs %v", x, er.PDF(x), want)
		}
		if math.Abs(er.CDF(x)-ex.CDF(x)) > 1e-12 {
			t.Errorf("CDF differs at %v: %v vs %v", x, er.CDF(x), ex.CDF(x))
		}
	}
}

func TestErlangValidation(t *testing.T) {
	if _, err := NewErlang(0, 1); err == nil {
		t.Error("shape 0 accepted")
	}
	if _, err := NewErlang(2, 0); err == nil {
		t.Error("rate 0 accepted")
	}
}

func TestHypoExpTwoStage(t *testing.T) {
	// The paper's conditional response time branch: rates mu and c*mu-lambda.
	h, err := NewHypoExp(0.2, 1.6)
	if err != nil {
		t.Fatal(err)
	}
	if want := 1/0.2 + 1/1.6; math.Abs(h.Mean()-want) > 1e-12 {
		t.Fatalf("mean = %v, want %v", h.Mean(), want)
	}
	if want := 1/(0.2*0.2) + 1/(1.6*1.6); math.Abs(h.Var()-want) > 1e-12 {
		t.Fatalf("var = %v, want %v", h.Var(), want)
	}
	checkMoments(t, h, 300_000, 0.01)
	checkPDFIsCDFDerivative(t, h, []float64{0.5, 2, 5, 15})
	checkCDFShape(t, h, 60)
}

func TestHypoExpEqualRatesIsErlang(t *testing.T) {
	h, _ := NewHypoExp(2, 2, 2)
	e, _ := NewErlang(3, 2)
	for _, x := range []float64{0, 0.3, 1, 3} {
		if math.Abs(h.PDF(x)-e.PDF(x)) > 1e-12 {
			t.Errorf("PDF differs at %v", x)
		}
		if math.Abs(h.CDF(x)-e.CDF(x)) > 1e-12 {
			t.Errorf("CDF differs at %v", x)
		}
	}
}

func TestHypoExpSingleStageIsExponential(t *testing.T) {
	h, _ := NewHypoExp(1.5)
	e := Exponential{Rate: 1.5}
	for _, x := range []float64{0.1, 1, 4} {
		if math.Abs(h.CDF(x)-e.CDF(x)) > 1e-12 {
			t.Errorf("CDF differs at %v: %v vs %v", x, h.CDF(x), e.CDF(x))
		}
	}
}

func TestHypoExpValidation(t *testing.T) {
	if _, err := NewHypoExp(); err == nil {
		t.Error("empty stage list accepted")
	}
	if _, err := NewHypoExp(1, -1); err == nil {
		t.Error("negative rate accepted")
	}
}

func TestHyperExp(t *testing.T) {
	h, err := NewHyperExp([]float64{0.3, 0.7}, []float64{1, 0.1})
	if err != nil {
		t.Fatal(err)
	}
	wantMean := 0.3/1 + 0.7/0.1
	if math.Abs(h.Mean()-wantMean) > 1e-12 {
		t.Fatalf("mean = %v, want %v", h.Mean(), wantMean)
	}
	checkMoments(t, h, 400_000, 0.02)
	checkCDFShape(t, h, 80)
}

func TestHyperExpValidation(t *testing.T) {
	if _, err := NewHyperExp([]float64{0.5}, []float64{1, 2}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := NewHyperExp([]float64{0.5, 0.4}, []float64{1, 2}); err == nil {
		t.Error("probabilities not summing to 1 accepted")
	}
	if _, err := NewHyperExp([]float64{1.5, -0.5}, []float64{1, 2}); err == nil {
		t.Error("negative probability accepted")
	}
	if _, err := NewHyperExp([]float64{0.5, 0.5}, []float64{1, 0}); err == nil {
		t.Error("zero rate accepted")
	}
}

func TestMixtureMMcResponseTime(t *testing.T) {
	// The paper's eq. (1) structure: Wc*Exp(mu) + (1-Wc)*HypoExp(mu, c*mu-lambda).
	const wc = 0.990981
	hypo, err := NewHypoExp(0.2, 1.6)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMixture([]float64{wc, 1 - wc}, []Dist{Exponential{Rate: 0.2}, hypo})
	if err != nil {
		t.Fatal(err)
	}
	// eq. (2): mean = 1/mu + (1-Wc)/(c*mu-lambda).
	wantMean := 5 + (1-wc)/1.6
	if math.Abs(m.Mean()-wantMean) > 1e-9 {
		t.Fatalf("mixture mean = %v, want %v", m.Mean(), wantMean)
	}
	// eq. (3): var = 1/mu^2 + (1-Wc^2)/(c*mu-lambda)^2.
	wantVar := 25 + (1-wc*wc)/(1.6*1.6)
	if math.Abs(m.Var()-wantVar) > 1e-9 {
		t.Fatalf("mixture variance = %v, want %v", m.Var(), wantVar)
	}
	checkMoments(t, m, 300_000, 0.01)
	checkCDFShape(t, m, 50)
}

func TestMixtureLawOfTotalVariance(t *testing.T) {
	a := Exponential{Rate: 1}
	b := Exponential{Rate: 0.25}
	m, err := NewMixture([]float64{0.5, 0.5}, []Dist{a, b})
	if err != nil {
		t.Fatal(err)
	}
	mean := 0.5*1 + 0.5*4
	within := 0.5*1 + 0.5*16
	between := 0.5*1*1 + 0.5*4*4 - mean*mean
	if math.Abs(m.Var()-(within+between)) > 1e-12 {
		t.Fatalf("mixture variance = %v, want %v", m.Var(), within+between)
	}
}

func TestMixtureValidation(t *testing.T) {
	if _, err := NewMixture([]float64{1}, nil); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := NewMixture([]float64{0.6, 0.6}, []Dist{Exponential{Rate: 1}, Exponential{Rate: 2}}); err == nil {
		t.Error("probabilities summing to 1.2 accepted")
	}
}
