package stats

import (
	"math"
	"math/rand"
	"testing"
)

func TestQuantileKnownValues(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	tests := []struct {
		p    float64
		want float64
	}{
		{0, 1},
		{0.25, 2},
		{0.5, 3},
		{0.75, 4},
		{1, 5},
		{0.125, 1.5}, // interpolation between order statistics
	}
	for _, tt := range tests {
		got, err := Quantile(xs, tt.p)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("Quantile(%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
}

func TestQuantileDoesNotMutateInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	if _, err := Quantile(xs, 0.5); err != nil {
		t.Fatal(err)
	}
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("input mutated: %v", xs)
	}
}

func TestQuantileSingleElement(t *testing.T) {
	for _, p := range []float64{0, 0.3, 1} {
		got, err := Quantile([]float64{42}, p)
		if err != nil || got != 42 {
			t.Fatalf("Quantile single = %v, %v", got, err)
		}
	}
}

func TestQuantileErrors(t *testing.T) {
	if _, err := Quantile(nil, 0.5); err == nil {
		t.Error("empty slice accepted")
	}
	if _, err := Quantile([]float64{1}, -0.1); err == nil {
		t.Error("negative p accepted")
	}
	if _, err := Quantile([]float64{1}, 1.1); err == nil {
		t.Error("p > 1 accepted")
	}
}

func TestQuantileMonotoneInP(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	xs := make([]float64, 500)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	prev := math.Inf(-1)
	for p := 0.0; p <= 1.0001; p += 0.01 {
		q, err := Quantile(xs, math.Min(p, 1))
		if err != nil {
			t.Fatal(err)
		}
		if q < prev {
			t.Fatalf("quantile decreased at p=%v: %v < %v", p, q, prev)
		}
		prev = q
	}
}
