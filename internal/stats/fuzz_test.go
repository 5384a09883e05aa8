package stats

import (
	"math"
	"testing"
)

// FuzzStdNormQuantileRoundTrip checks CDF(Quantile(p)) == p over the
// full open interval, including extreme tails.
func FuzzStdNormQuantileRoundTrip(f *testing.F) {
	f.Add(0.5)
	f.Add(0.975)
	f.Add(1e-12)
	f.Add(1 - 1e-12)
	f.Fuzz(func(t *testing.T, p float64) {
		if !(p > 0 && p < 1) {
			t.Skip()
		}
		q := StdNormQuantile(p)
		if math.IsNaN(q) {
			t.Fatalf("quantile(%v) is NaN", p)
		}
		back := NormCDF(q, 0, 1)
		// Absolute tolerance loosens in the far tails where the CDF
		// saturates in double precision.
		tol := 1e-11
		if p < 1e-9 || p > 1-1e-9 {
			tol = 1e-9
		}
		if math.Abs(back-p) > tol {
			t.Fatalf("CDF(Quantile(%v)) = %v", p, back)
		}
	})
}

// FuzzWelford checks the streaming moments against the naive two-pass
// computation on arbitrary byte-derived samples.
func FuzzWelford(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5})
	f.Add([]byte{0, 0, 0})
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) < 2 {
			t.Skip()
		}
		var w Welford
		xs := make([]float64, len(raw))
		for i, b := range raw {
			xs[i] = float64(b) - 128
			w.Add(xs[i])
		}
		mean := 0.0
		for _, x := range xs {
			mean += x
		}
		mean /= float64(len(xs))
		variance := 0.0
		for _, x := range xs {
			variance += (x - mean) * (x - mean)
		}
		variance /= float64(len(xs) - 1)
		if math.Abs(w.Mean()-mean) > 1e-9 {
			t.Fatalf("mean %v, naive %v", w.Mean(), mean)
		}
		if math.Abs(w.Var()-variance) > 1e-7*(1+variance) {
			t.Fatalf("var %v, naive %v", w.Var(), variance)
		}
	})
}

// FuzzHistogramTotals checks count conservation: every added value lands
// in exactly one of {bins, under, over, NaN-absorbed-by-total}.
func FuzzHistogramTotals(f *testing.F) {
	f.Add([]byte{10, 200, 255, 0})
	f.Fuzz(func(t *testing.T, raw []byte) {
		h := NewHistogram(50, 200, 7)
		for _, b := range raw {
			h.Add(float64(b))
		}
		var binned int64
		for _, c := range h.Counts {
			binned += c
		}
		if binned+h.Under+h.Over != int64(len(raw)) {
			t.Fatalf("counts %d + under %d + over %d != %d",
				binned, h.Under, h.Over, len(raw))
		}
	})
}

// FuzzGammaPQ checks the regularized incomplete gamma pair over
// arbitrary (a, x): either both calls error identically, or the results
// are in [0,1] and complementary.
func FuzzGammaPQ(f *testing.F) {
	f.Add(0.5, 1.0)
	f.Add(10.0, 2.0)
	f.Add(1e-6, 1e6)
	f.Add(300.0, 300.0)
	f.Fuzz(func(t *testing.T, a, x float64) {
		p, errP := GammaP(a, x)
		q, errQ := GammaQ(a, x)
		if (errP == nil) != (errQ == nil) {
			t.Fatalf("GammaP err=%v but GammaQ err=%v for a=%v x=%v", errP, errQ, a, x)
		}
		if errP != nil {
			return
		}
		if math.IsNaN(p) || p < 0 || p > 1 {
			t.Fatalf("GammaP(%v, %v) = %v outside [0,1]", a, x, p)
		}
		if math.Abs(p+q-1) > 1e-9 {
			t.Fatalf("P+Q = %v for a=%v x=%v", p+q, a, x)
		}
	})
}

// FuzzChiSquareGOF checks the goodness-of-fit test never panics and
// either errors or returns a finite statistic with p in [0,1], on
// byte-derived counts against equiprobable cells.
func FuzzChiSquareGOF(f *testing.F) {
	f.Add([]byte{10, 20, 30})
	f.Add([]byte{0, 0})
	f.Add([]byte{255})
	f.Fuzz(func(t *testing.T, raw []byte) {
		obs := make([]int64, len(raw))
		for i, b := range raw {
			obs[i] = int64(b)
		}
		probs := make([]float64, len(raw))
		for i := range probs {
			probs[i] = 1 / float64(len(raw))
		}
		stat, df, p, err := ChiSquareGOF(obs, probs)
		if err != nil {
			return
		}
		if math.IsNaN(stat) || math.IsInf(stat, 0) || stat < 0 {
			t.Fatalf("statistic %v", stat)
		}
		if df != len(raw)-1 {
			t.Fatalf("df = %d, want %d", df, len(raw)-1)
		}
		if math.IsNaN(p) || p < 0 || p > 1 {
			t.Fatalf("p = %v outside [0,1]", p)
		}
	})
}

// FuzzADTwoSample checks the Anderson-Darling statistic on arbitrary
// byte-derived split samples: it never panics, and on valid inputs the
// statistic is finite and non-negative with p in [0,1]. Raw float bit
// patterns (NaN/Inf payloads) must be rejected with an error, not a
// crash.
func FuzzADTwoSample(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6}, uint8(3))
	f.Add([]byte{7, 7, 7, 7}, uint8(2))
	f.Add([]byte{}, uint8(0))
	f.Fuzz(func(t *testing.T, raw []byte, split uint8) {
		all := make([]float64, len(raw))
		for i, b := range raw {
			// Mix in a NaN/Inf occasionally via extreme byte values to
			// exercise the validation path.
			switch b {
			case 254:
				all[i] = math.Inf(1)
			case 255:
				all[i] = math.NaN()
			default:
				all[i] = float64(b) / 16
			}
		}
		cut := int(split) % (len(all) + 1)
		xs, ys := all[:cut], all[cut:]
		a2, err := ADTwoSampleStatistic(xs, ys)
		if err != nil {
			return
		}
		if math.IsNaN(a2) || math.IsInf(a2, 0) || a2 < 0 {
			t.Fatalf("A² = %v for xs=%v ys=%v", a2, xs, ys)
		}
		p, err := ADPValue(a2)
		if err != nil {
			t.Fatal(err)
		}
		if math.IsNaN(p) || p < 0 || p > 1 {
			t.Fatalf("p = %v outside [0,1]", p)
		}
	})
}
