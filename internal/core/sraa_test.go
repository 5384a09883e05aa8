package core

import (
	"math/rand"
	"testing"
)

var testBaseline = Baseline{Mean: 5, StdDev: 5}

func mustSRAA(t *testing.T, n, k, d int) *SRAA {
	t.Helper()
	s, err := NewSRAA(SRAAConfig{SampleSize: n, Buckets: k, Depth: d, Baseline: testBaseline})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSRAAConfigValidation(t *testing.T) {
	tests := []struct {
		name string
		cfg  SRAAConfig
	}{
		{"zero sample size", SRAAConfig{SampleSize: 0, Buckets: 1, Depth: 1, Baseline: testBaseline}},
		{"zero buckets", SRAAConfig{SampleSize: 1, Buckets: 0, Depth: 1, Baseline: testBaseline}},
		{"zero depth", SRAAConfig{SampleSize: 1, Buckets: 1, Depth: 0, Baseline: testBaseline}},
		{"zero stddev", SRAAConfig{SampleSize: 1, Buckets: 1, Depth: 1, Baseline: Baseline{Mean: 5}}},
		{"negative stddev", SRAAConfig{SampleSize: 1, Buckets: 1, Depth: 1, Baseline: Baseline{Mean: 5, StdDev: -1}}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := NewSRAA(tt.cfg); err == nil {
				t.Errorf("invalid config accepted: %+v", tt.cfg)
			}
		})
	}
}

func TestSRAATriggerAfterMinimumDegradedSamples(t *testing.T) {
	// With every sample mean above the top target, SRAA(n, K, D) must
	// trigger after exactly (D+1)*K samples = (D+1)*K*n observations.
	tests := []struct{ n, k, d int }{
		{1, 1, 1}, {1, 3, 5}, {2, 5, 3}, {3, 2, 5}, {15, 1, 1},
	}
	for _, tt := range tests {
		det := mustSRAA(t, tt.n, tt.k, tt.d)
		const huge = 1e6 // exceeds every target mu + N*sigma
		obs := 0
		for {
			obs++
			d := det.Observe(huge)
			if d.Triggered {
				break
			}
			if obs > 10*(tt.d+1)*tt.k*tt.n {
				t.Fatalf("(%d,%d,%d): no trigger after %d observations", tt.n, tt.k, tt.d, obs)
			}
		}
		if want := (tt.d + 1) * tt.k * tt.n; obs != want {
			t.Errorf("(%d,%d,%d): triggered after %d observations, want %d", tt.n, tt.k, tt.d, obs, want)
		}
	}
}

func TestSRAANeverTriggersOnHealthyConstantStream(t *testing.T) {
	// Observations exactly at the mean never exceed any target
	// (comparison is strict), so every sample drains the bucket.
	det := mustSRAA(t, 3, 2, 2)
	for i := 0; i < 10_000; i++ {
		if det.Observe(5).Triggered {
			t.Fatalf("triggered on a stream pinned at the baseline mean (observation %d)", i)
		}
	}
}

func TestSRAATargetTracksBucketLevel(t *testing.T) {
	det := mustSRAA(t, 1, 3, 1)
	if det.Target() != 5 {
		t.Fatalf("initial target %v, want mu = 5", det.Target())
	}
	// Overflow the first bucket: two exceeding samples.
	det.Observe(100)
	det.Observe(100)
	if det.Target() != 10 {
		t.Fatalf("target after first overflow %v, want mu + sigma = 10", det.Target())
	}
	det.Observe(100)
	det.Observe(100)
	if det.Target() != 15 {
		t.Fatalf("target after second overflow %v, want mu + 2*sigma = 15", det.Target())
	}
}

func TestSRAAAveragingSmoothsOutliers(t *testing.T) {
	// A single huge observation inside an otherwise tiny sample must
	// not move the bucket when the average stays below the target.
	det := mustSRAA(t, 5, 1, 1)
	seq := []float64{0, 0, 0, 0, 20} // mean 4 < 5
	for _, x := range seq {
		if d := det.Observe(x); d.Triggered {
			t.Fatal("triggered on a sample whose mean is below target")
		}
	}
	// The completed sample must have drained, not filled, the bucket.
	if det.Internals().Fill != 0 {
		t.Fatalf("fill = %d after a below-target sample, want 0", det.Internals().Fill)
	}
}

func TestSRAADecisionFields(t *testing.T) {
	det := mustSRAA(t, 2, 2, 1)
	d := det.Observe(7)
	if d.Evaluated || d.Triggered {
		t.Fatal("mid-sample observation must not evaluate")
	}
	d = det.Observe(9)
	if !d.Evaluated {
		t.Fatal("sample-completing observation must evaluate")
	}
	if d.SampleMean != 8 {
		t.Fatalf("sample mean %v, want 8", d.SampleMean)
	}
	if d.Fill != 1 || d.Level != 0 {
		t.Fatalf("fill=%d level=%d, want 1,0", d.Fill, d.Level)
	}
}

func TestSRAAResetClearsEverything(t *testing.T) {
	det := mustSRAA(t, 2, 3, 2)
	for i := 0; i < 7; i++ {
		det.Observe(100)
	}
	det.Reset()
	if det.Internals().Fill != 0 || det.Internals().Level != 0 || det.Internals().SampleFill != 0 {
		t.Fatal("reset left residual state")
	}
	if det.Target() != 5 {
		t.Fatalf("target after reset %v, want 5", det.Target())
	}
}

func TestSRAAAutoResetAfterTrigger(t *testing.T) {
	det := mustSRAA(t, 1, 1, 1)
	det.Observe(100)
	d := det.Observe(100)
	if !d.Triggered {
		t.Fatal("expected trigger")
	}
	if d.Level != 0 || d.Fill != 0 {
		t.Fatalf("post-trigger decision reports level=%d fill=%d, want 0,0", d.Level, d.Fill)
	}
	// The detector must need the full (D+1)*K delay again: the first
	// post-trigger exceedance cannot re-trigger.
	if det.Observe(100).Triggered {
		t.Fatal("re-triggered immediately after auto-reset")
	}
	if !det.Observe(100).Triggered {
		t.Fatal("second post-reset exceedance should trigger for K=1, D=1")
	}
}

func TestSRAADeterminism(t *testing.T) {
	// Property: identical observation sequences produce identical
	// decision sequences.
	rng := rand.New(rand.NewSource(37))
	seq := make([]float64, 2000)
	for i := range seq {
		seq[i] = rng.ExpFloat64() * 7
	}
	a := mustSRAA(t, 3, 2, 2)
	b := mustSRAA(t, 3, 2, 2)
	for i, x := range seq {
		da, db := a.Observe(x), b.Observe(x)
		if da != db {
			t.Fatalf("decision %d diverged: %+v vs %+v", i, da, db)
		}
	}
}

func TestStaticIsSRAAWithSampleSizeOne(t *testing.T) {
	static, err := NewStatic(3, 2, testBaseline)
	if err != nil {
		t.Fatal(err)
	}
	sraa := mustSRAA(t, 1, 3, 2)
	rng := rand.New(rand.NewSource(41))
	for i := 0; i < 5000; i++ {
		x := rng.ExpFloat64() * 8
		if d1, d2 := static.Observe(x), sraa.Observe(x); d1 != d2 {
			t.Fatalf("observation %d: static %+v != SRAA(n=1) %+v", i, d1, d2)
		}
	}
}

func TestSRAAConfigAccessor(t *testing.T) {
	cfg := SRAAConfig{SampleSize: 2, Buckets: 5, Depth: 3, Baseline: testBaseline}
	det, err := NewSRAA(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if det.Config() != cfg {
		t.Fatalf("Config() = %+v, want %+v", det.Config(), cfg)
	}
}
