package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// naiveMoments computes mean and unbiased variance directly, as the
// reference for the streaming implementation.
func naiveMoments(xs []float64) (mean, variance float64) {
	if len(xs) == 0 {
		return math.NaN(), math.NaN()
	}
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	if len(xs) < 2 {
		return mean, math.NaN()
	}
	for _, x := range xs {
		d := x - mean
		variance += d * d
	}
	return mean, variance / float64(len(xs)-1)
}

func TestWelfordMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(100)
		xs := make([]float64, n)
		var w Welford
		for i := range xs {
			xs[i] = rng.NormFloat64()*100 + 1e6 // offset stresses stability
			w.Add(xs[i])
		}
		mean, variance := naiveMoments(xs)
		if math.Abs(w.Mean()-mean) > 1e-6 {
			t.Fatalf("trial %d: mean %v, naive %v", trial, w.Mean(), mean)
		}
		if math.Abs(w.Var()-variance) > 1e-4*variance+1e-9 {
			t.Fatalf("trial %d: var %v, naive %v", trial, w.Var(), variance)
		}
	}
}

func TestWelfordEmptyAndSingle(t *testing.T) {
	var w Welford
	if !math.IsNaN(w.Mean()) || !math.IsNaN(w.Var()) || !math.IsNaN(w.Min()) {
		t.Fatal("empty accumulator must report NaN moments")
	}
	w.Add(7)
	if w.Mean() != 7 || w.Min() != 7 || w.Max() != 7 || w.N() != 1 {
		t.Fatalf("single observation: mean=%v min=%v max=%v n=%d", w.Mean(), w.Min(), w.Max(), w.N())
	}
	if !math.IsNaN(w.Var()) {
		t.Fatal("variance of one observation must be NaN")
	}
}

func TestWelfordMinMax(t *testing.T) {
	var w Welford
	for _, x := range []float64{3, -1, 4, -1, 5, -9, 2} {
		w.Add(x)
	}
	if w.Min() != -9 || w.Max() != 5 {
		t.Fatalf("min=%v max=%v, want -9 and 5", w.Min(), w.Max())
	}
}

func TestWelfordMergeEquivalentToSequential(t *testing.T) {
	// Property: merging two accumulators equals accumulating the
	// concatenation.
	bounded := func(xs []float64) bool {
		for _, x := range xs {
			// Extreme magnitudes overflow any d*d computation — naive or
			// streaming — so the property is only meaningful below ~1e150.
			if math.IsNaN(x) || math.Abs(x) > 1e150 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(func(a, b []float64) bool {
		if !bounded(a) || !bounded(b) {
			return true // skip inputs outside the supported domain
		}
		var wa, wb, wAll Welford
		for _, x := range a {
			wa.Add(x)
			wAll.Add(x)
		}
		for _, x := range b {
			wb.Add(x)
			wAll.Add(x)
		}
		wa.Merge(wb)
		if wa.N() != wAll.N() {
			return false
		}
		if wa.N() == 0 {
			return true
		}
		scale := math.Max(1, math.Abs(wAll.Mean()))
		if math.Abs(wa.Mean()-wAll.Mean()) > 1e-9*scale {
			return false
		}
		if wa.N() >= 2 {
			vs := math.Max(1, wAll.Var())
			if math.Abs(wa.Var()-wAll.Var()) > 1e-6*vs {
				return false
			}
		}
		return wa.Min() == wAll.Min() && wa.Max() == wAll.Max()
	}, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestWelfordMergeEmpty(t *testing.T) {
	var a, b Welford
	a.Add(1)
	a.Add(2)
	want := a
	a.Merge(b) // merging empty changes nothing
	if a != want {
		t.Fatalf("merge with empty changed state: %+v != %+v", a, want)
	}
	b.Merge(a) // merging into empty copies
	if b.N() != 2 || b.Mean() != 1.5 {
		t.Fatalf("merge into empty: n=%d mean=%v", b.N(), b.Mean())
	}
}

func TestWelfordReset(t *testing.T) {
	var w Welford
	w.Add(5)
	w.Reset()
	if w.N() != 0 || !math.IsNaN(w.Mean()) {
		t.Fatal("reset did not clear the accumulator")
	}
}

func TestWelfordStdErr(t *testing.T) {
	var w Welford
	for i := 0; i < 100; i++ {
		w.Add(float64(i % 2)) // variance 0.25 (roughly)
	}
	want := w.StdDev() / 10
	if math.Abs(w.StdErr()-want) > 1e-12 {
		t.Fatalf("StdErr = %v, want %v", w.StdErr(), want)
	}
}
