package core

import (
	"math"
	"math/rand"
	"testing"
)

func mustSARAA(t *testing.T, n, k, d int) *SARAA {
	t.Helper()
	s, err := NewSARAA(SARAAConfig{InitialSampleSize: n, Buckets: k, Depth: d, Baseline: testBaseline})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSARAAConfigValidation(t *testing.T) {
	tests := []struct {
		name string
		cfg  SARAAConfig
	}{
		{"zero sample size", SARAAConfig{InitialSampleSize: 0, Buckets: 1, Depth: 1, Baseline: testBaseline}},
		{"zero buckets", SARAAConfig{InitialSampleSize: 1, Buckets: 0, Depth: 1, Baseline: testBaseline}},
		{"zero depth", SARAAConfig{InitialSampleSize: 1, Buckets: 1, Depth: 0, Baseline: testBaseline}},
		{"bad baseline", SARAAConfig{InitialSampleSize: 1, Buckets: 1, Depth: 1}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := NewSARAA(tt.cfg); err == nil {
				t.Errorf("invalid config accepted: %+v", tt.cfg)
			}
		})
	}
}

func TestSARAAAccelerationSchedule(t *testing.T) {
	// The paper's rule: n = floor(1 + (norig-1)*(1 - N/K)).
	tests := []struct {
		norig, k int
		want     []int // sample size at levels 0..k-1
	}{
		{6, 5, []int{6, 5, 4, 3, 2}},
		{10, 3, []int{10, 7, 4}},
		{2, 5, []int{2, 1, 1, 1, 1}},
		{5, 1, []int{5}},
		{1, 4, []int{1, 1, 1, 1}},
	}
	for _, tt := range tests {
		for level, want := range tt.want {
			if got := acceleratedSampleSize(tt.norig, tt.k, level); got != want {
				t.Errorf("norig=%d K=%d level %d: size %d, want %d",
					tt.norig, tt.k, level, got, want)
			}
		}
	}
}

func TestSARAASampleSizeShrinksOnOverflow(t *testing.T) {
	det := mustSARAA(t, 6, 5, 1)
	if det.SampleSize() != 6 {
		t.Fatalf("initial sample size %d, want 6", det.SampleSize())
	}
	// Overflow the first bucket: (D+1)=2 exceeding samples of size 6.
	for i := 0; i < 12; i++ {
		det.Observe(1e6)
	}
	if det.SampleSize() != 5 {
		t.Fatalf("sample size after first overflow %d, want 5", det.SampleSize())
	}
}

func TestSARAASampleSizeGrowsOnUnderflow(t *testing.T) {
	det := mustSARAA(t, 6, 5, 2)
	// Climb to level 1: 3 exceeding samples of size 6.
	for i := 0; i < 18; i++ {
		det.Observe(1e6)
	}
	if det.Internals().Level != 1 || det.SampleSize() != 5 {
		t.Fatalf("level=%d size=%d after climb, want 1 and 5", det.Internals().Level, det.SampleSize())
	}
	// Now recede: underflow needs fill to drop below zero — 1 sample
	// below target at fill 0... fill was reset to 0 on overflow, so a
	// single below-target sample of size 5 underflows back to level 0.
	for i := 0; i < 5; i++ {
		det.Observe(0)
	}
	if det.Internals().Level != 0 {
		t.Fatalf("level %d after underflow, want 0", det.Internals().Level)
	}
	if det.SampleSize() != 6 {
		t.Fatalf("sample size after underflow %d, want 6 (back to norig)", det.SampleSize())
	}
}

func TestSARAATargetUsesCurrentSampleSize(t *testing.T) {
	det := mustSARAA(t, 4, 2, 1)
	// Level 0: target is mu + 0*sigma/sqrt(n) = mu.
	if det.Target() != 5 {
		t.Fatalf("initial target %v, want 5", det.Target())
	}
	// Overflow to level 1: size becomes floor(1+3*(1-1/2)) = 2.
	for i := 0; i < 8; i++ {
		det.Observe(1e6)
	}
	if det.Internals().Level != 1 {
		t.Fatalf("level = %d, want 1", det.Internals().Level)
	}
	want := 5 + 1*5/math.Sqrt(2)
	if math.Abs(det.Target()-want) > 1e-12 {
		t.Fatalf("level-1 target %v, want %v", det.Target(), want)
	}
}

func TestSARAATriggerResetsToInitialSize(t *testing.T) {
	det := mustSARAA(t, 6, 2, 1)
	obs := 0
	for {
		obs++
		if det.Observe(1e6).Triggered {
			break
		}
		if obs > 1000 {
			t.Fatal("no trigger")
		}
	}
	// Level 0 needs 2 samples of 6 = 12, level 1 needs 2 samples of
	// floor(1+5*0.5) = 3 each: 18 observations total.
	if obs != 18 {
		t.Fatalf("triggered after %d observations, want 18", obs)
	}
	if det.SampleSize() != 6 {
		t.Fatalf("sample size after trigger %d, want norig", det.SampleSize())
	}
	if det.Internals().Level != 0 || det.Internals().Fill != 0 {
		t.Fatal("buckets not reset after trigger")
	}
}

func TestSARAATriggersFasterThanSRAAUnderDegradation(t *testing.T) {
	// Acceleration exists to shorten the confirmation delay; under
	// constant severe degradation SARAA must trigger in no more
	// observations than SRAA with the same (n, K, D).
	type cfg struct{ n, k, d int }
	for _, c := range []cfg{{6, 5, 1}, {10, 3, 1}, {2, 5, 3}, {4, 4, 2}} {
		sraa := mustSRAA(t, c.n, c.k, c.d)
		saraa := mustSARAA(t, c.n, c.k, c.d)
		count := func(det Detector) int {
			for i := 1; ; i++ {
				if det.Observe(1e6).Triggered {
					return i
				}
				if i > 100_000 {
					t.Fatalf("(%d,%d,%d): no trigger", c.n, c.k, c.d)
				}
			}
		}
		if s, sa := count(sraa), count(saraa); sa > s {
			t.Errorf("(%d,%d,%d): SARAA needed %d observations, SRAA %d", c.n, c.k, c.d, sa, s)
		}
	}
}

func TestSARAADeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	seq := make([]float64, 3000)
	for i := range seq {
		seq[i] = rng.ExpFloat64() * 9
	}
	a := mustSARAA(t, 4, 3, 2)
	b := mustSARAA(t, 4, 3, 2)
	for i, x := range seq {
		if da, db := a.Observe(x), b.Observe(x); da != db {
			t.Fatalf("decision %d diverged: %+v vs %+v", i, da, db)
		}
	}
}

func TestSARAAResetRestoresInitialSampleSize(t *testing.T) {
	det := mustSARAA(t, 8, 4, 1)
	for i := 0; i < 16; i++ {
		det.Observe(1e6)
	}
	if det.SampleSize() == 8 {
		t.Fatal("test setup failed to change the sample size")
	}
	det.Reset()
	if det.SampleSize() != 8 || det.Internals().Level != 0 {
		t.Fatal("reset did not restore the initial state")
	}
}

func TestSARAASampleSizeAlwaysPositive(t *testing.T) {
	// Property: the acceleration rule never produces a sample size
	// below one for any level reachable under any (norig, K).
	for norig := 1; norig <= 40; norig++ {
		for k := 1; k <= 12; k++ {
			for level := 0; level < k; level++ {
				if got := acceleratedSampleSize(norig, k, level); got < 1 {
					t.Fatalf("norig=%d K=%d level=%d: size %d", norig, k, level, got)
				}
				if got := acceleratedSampleSize(norig, k, level); got > norig {
					t.Fatalf("norig=%d K=%d level=%d: size %d exceeds norig", norig, k, level, got)
				}
			}
		}
	}
}
