package stats

import (
	"math"
	"math/rand"
	"testing"
)

func TestHistogramBinning(t *testing.T) {
	h := NewHistogram(0, 10, 10)
	for _, x := range []float64{0, 0.5, 1, 5.5, 9.999} {
		h.Add(x)
	}
	if h.Counts[0] != 2 || h.Counts[1] != 1 || h.Counts[5] != 1 || h.Counts[9] != 1 {
		t.Fatalf("counts = %v", h.Counts)
	}
	if h.total != 5 {
		t.Fatalf("total = %d, want 5", h.total)
	}
}

func TestHistogramOutOfRange(t *testing.T) {
	h := NewHistogram(0, 1, 4)
	h.Add(-0.1)
	h.Add(1)
	h.Add(2)
	h.Add(math.NaN())
	if h.Under != 1 || h.Over != 2 {
		t.Fatalf("under=%d over=%d, want 1 and 2", h.Under, h.Over)
	}
	if h.total != 4 {
		t.Fatalf("total = %d, want 4 (NaN counts toward total)", h.total)
	}
}

func TestHistogramDensityIntegratesToInRangeMass(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	h := NewHistogram(0, 5, 50)
	const n = 100_000
	inRange := 0
	for i := 0; i < n; i++ {
		x := rng.ExpFloat64()
		if x >= 0 && x < 5 {
			inRange++
		}
		h.Add(x)
	}
	sum := 0.0
	for _, d := range h.Density() {
		sum += d * h.binWidth
	}
	if math.Abs(sum-float64(inRange)/n) > 1e-9 {
		t.Fatalf("density integrates to %v, want %v", sum, float64(inRange)/n)
	}
}

func TestHistogramDensityApproximatesExponential(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	h := NewHistogram(0, 6, 30)
	for i := 0; i < 400_000; i++ {
		h.Add(rng.ExpFloat64())
	}
	dens := h.Density()
	for i := 0; i < 10; i++ { // check the well-populated low bins
		x := h.BinCenter(i)
		want := math.Exp(-x)
		if math.Abs(dens[i]-want)/want > 0.05 {
			t.Fatalf("bin %d density %v, want %v within 5%%", i, dens[i], want)
		}
	}
}

func TestHistogramPanicsOnBadConstruction(t *testing.T) {
	tests := []struct {
		name   string
		lo, hi float64
		bins   int
	}{
		{"inverted range", 5, 1, 10},
		{"zero bins", 0, 1, 0},
		{"equal bounds", 2, 2, 4},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("NewHistogram(%v,%v,%d) did not panic", tt.lo, tt.hi, tt.bins)
				}
			}()
			NewHistogram(tt.lo, tt.hi, tt.bins)
		})
	}
}

func TestSummaryAndRelDiff(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4})
	if s.N != 4 || s.Mean != 2.5 || s.Min != 1 || s.Max != 4 {
		t.Fatalf("summary = %+v", s)
	}
	if s.String() == "" {
		t.Fatal("empty summary string")
	}
	if RelDiff(0, 0) != 0 {
		t.Fatal("RelDiff(0,0) != 0")
	}
	if got := RelDiff(10, 9); math.Abs(got-0.1) > 1e-12 {
		t.Fatalf("RelDiff(10,9) = %v, want 0.1", got)
	}
	if RelDiff(9, 10) != RelDiff(10, 9) {
		t.Fatal("RelDiff not symmetric")
	}
}
