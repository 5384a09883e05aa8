package stats

import (
	"math"
	"math/rand"
	"testing"
)

func TestAutocorrelationIIDNearZero(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	xs := make([]float64, 50_000)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	g, err := Autocorrelation(xs, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(g) > 0.02 {
		t.Fatalf("iid series lag-1 autocorrelation = %v, want ~0", g)
	}
}

func TestAutocorrelationAR1(t *testing.T) {
	// x_t = phi*x_{t-1} + e_t has lag-k autocorrelation phi^k.
	for _, phi := range []float64{0.3, 0.7, -0.5} {
		rng := rand.New(rand.NewSource(8))
		xs := make([]float64, 200_000)
		for i := 1; i < len(xs); i++ {
			xs[i] = phi*xs[i-1] + rng.NormFloat64()
		}
		g1, err := Autocorrelation(xs, 1)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(g1-phi) > 0.02 {
			t.Errorf("AR(1) phi=%v: lag-1 = %v", phi, g1)
		}
		g2, err := Autocorrelation(xs, 2)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(g2-phi*phi) > 0.02 {
			t.Errorf("AR(1) phi=%v: lag-2 = %v, want %v", phi, g2, phi*phi)
		}
	}
}

func TestAutocorrelationPerfect(t *testing.T) {
	// A long alternating series has lag-1 autocorrelation near -1 and
	// lag-2 near +1.
	xs := make([]float64, 10_000)
	for i := range xs {
		xs[i] = float64(i % 2)
	}
	g1, err := Autocorrelation(xs, 1)
	if err != nil {
		t.Fatal(err)
	}
	if g1 > -0.99 {
		t.Fatalf("alternating series lag-1 = %v, want ~-1", g1)
	}
	g2, err := Autocorrelation(xs, 2)
	if err != nil {
		t.Fatal(err)
	}
	if g2 < 0.99 {
		t.Fatalf("alternating series lag-2 = %v, want ~+1", g2)
	}
}

func TestAutocorrelationErrors(t *testing.T) {
	tests := []struct {
		name string
		xs   []float64
		lag  int
	}{
		{"lag zero", []float64{1, 2, 3}, 0},
		{"lag too large", []float64{1, 2, 3}, 3},
		{"empty", nil, 1},
		{"constant series", []float64{2, 2, 2, 2}, 1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Autocorrelation(tt.xs, tt.lag); err == nil {
				t.Errorf("Autocorrelation(%v, %d) did not error", tt.xs, tt.lag)
			}
		})
	}
}

func TestAutocorrelationSignificant(t *testing.T) {
	// Threshold is 1.96/sqrt(n); n=90,000 gives 0.006533, the paper's value.
	n := 90_000
	threshold := 1.96 / math.Sqrt(float64(n))
	if !AutocorrelationSignificant(threshold*1.01, n) {
		t.Error("value just above threshold not flagged significant")
	}
	if AutocorrelationSignificant(threshold*0.99, n) {
		t.Error("value just below threshold flagged significant")
	}
	if !AutocorrelationSignificant(-threshold*1.01, n) {
		t.Error("negative coefficient beyond threshold not flagged")
	}
}
