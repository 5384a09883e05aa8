package core

import (
	"math/rand"
	"testing"
)

// bucketPlan returns an SRAA plan with K=k and D=d whose ball-and-bucket
// counter the tests step directly through Plan.step.
func bucketPlan(t testing.TB, k, d int) Plan {
	t.Helper()
	if err := validateBuckets(k, d); err != nil {
		t.Fatal(err)
	}
	return SRAAConfig{SampleSize: 1, Buckets: k, Depth: d}.Plan()
}

func TestBucketStepFollowsPseudoCode(t *testing.T) {
	// Walk the exact transitions of the paper's Fig. 6 pseudo-code for
	// K=2, D=2 and verify fill/level/event after every step.
	p := bucketPlan(t, 2, 2)
	b := p.Start()
	steps := []struct {
		exceed    bool
		wantFill  int
		wantLevel int
		wantEvent bucketEvent
	}{
		{true, 1, 0, bucketNone},       // d: 0->1
		{true, 2, 0, bucketNone},       // d: 1->2 (== D, no overflow yet)
		{false, 1, 0, bucketNone},      // d: 2->1
		{true, 2, 0, bucketNone},       // d: 1->2
		{true, 0, 1, bucketOverflow},   // d: 2->3 > D -> overflow, N=1
		{false, 2, 0, bucketUnderflow}, // d: -1 < 0, N>0 -> underflow, d=D
		{false, 1, 0, bucketNone},      // d: 2->1
		{false, 0, 0, bucketNone},      // d: 1->0
		{false, 0, 0, bucketNone},      // d: -1 < 0, N==0 -> clamp to 0
	}
	for i, s := range steps {
		event := p.step(&b, s.exceed)
		if b.Fill() != s.wantFill || b.Level() != s.wantLevel || event != s.wantEvent {
			t.Fatalf("step %d (exceed=%v): fill=%d level=%d event=%d, want %d %d %d",
				i, s.exceed, b.Fill(), b.Level(), event, s.wantFill, s.wantLevel, s.wantEvent)
		}
	}
}

func TestBucketTriggerOnLastOverflow(t *testing.T) {
	// K=1, D=1: trigger requires d to pass D, i.e. two net exceedances.
	p := bucketPlan(t, 1, 1)
	b := p.Start()
	if e := p.step(&b, true); e != bucketNone {
		t.Fatalf("first exceedance already produced event %d", e)
	}
	if e := p.step(&b, true); e != bucketTrigger {
		t.Fatalf("second exceedance produced event %d, want trigger", e)
	}
	if b.Fill() != 0 || b.Level() != 0 {
		t.Fatalf("state after trigger: fill=%d level=%d, want 0,0", b.Fill(), b.Level())
	}
}

func TestBucketMinimumDelay(t *testing.T) {
	// The paper: "the minimum delay before a degradation can be
	// affirmed is at least D*K observations". With strict overflow the
	// exact minimum under constant exceedance is (D+1)*K steps.
	tests := []struct {
		k, d int
	}{
		{1, 1}, {3, 5}, {5, 3}, {2, 10}, {10, 1},
	}
	for _, tt := range tests {
		p := bucketPlan(t, tt.k, tt.d)
		b := p.Start()
		steps := 0
		for {
			steps++
			if p.step(&b, true) == bucketTrigger {
				break
			}
			if steps > 10*(tt.d+1)*tt.k {
				t.Fatalf("K=%d D=%d: no trigger after %d steps", tt.k, tt.d, steps)
			}
		}
		want := (tt.d + 1) * tt.k
		if steps != want {
			t.Errorf("K=%d D=%d: triggered after %d steps, want %d", tt.k, tt.d, steps, want)
		}
		if steps < tt.d*tt.k {
			t.Errorf("K=%d D=%d: violated the paper's D*K lower bound", tt.k, tt.d)
		}
	}
}

func TestBucketNeverTriggersWithoutExceedances(t *testing.T) {
	p := bucketPlan(t, 3, 2)
	b := p.Start()
	for i := 0; i < 1000; i++ {
		if e := p.step(&b, false); e != bucketNone {
			t.Fatalf("step %d produced event %d on a healthy stream", i, e)
		}
		if b.Fill() != 0 || b.Level() != 0 {
			t.Fatalf("healthy stream moved state to fill=%d level=%d", b.Fill(), b.Level())
		}
	}
}

func TestBucketInvariants(t *testing.T) {
	// Property: under any observation sequence, 0 <= fill <= D and
	// 0 <= level < K hold after every step.
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 50; trial++ {
		k := 1 + rng.Intn(6)
		d := 1 + rng.Intn(6)
		p := bucketPlan(t, k, d)
		b := p.Start()
		for i := 0; i < 5000; i++ {
			p.step(&b, rng.Intn(2) == 0)
			if b.Fill() < 0 || b.Fill() > d {
				t.Fatalf("K=%d D=%d: fill %d escaped [0,%d]", k, d, b.Fill(), d)
			}
			if b.Level() < 0 || b.Level() >= k {
				t.Fatalf("K=%d D=%d: level %d escaped [0,%d)", k, d, b.Level(), k)
			}
		}
	}
}

func TestBucketUnderflowDescendsToPreviousBucket(t *testing.T) {
	p := bucketPlan(t, 3, 2)
	b := p.Start()
	// Climb to level 2.
	for b.Level() < 2 {
		p.step(&b, true)
	}
	// Descend: first underflow refills the lower bucket to D.
	b.fill = 0
	if e := p.step(&b, false); e != bucketUnderflow {
		t.Fatalf("event %d, want underflow", e)
	}
	if b.Level() != 1 || b.Fill() != 2 {
		t.Fatalf("after underflow: level=%d fill=%d, want 1,2", b.Level(), b.Fill())
	}
}

func TestBucketValidation(t *testing.T) {
	if err := validateBuckets(0, 1); err == nil {
		t.Error("K=0 accepted")
	}
	if err := validateBuckets(1, 0); err == nil {
		t.Error("D=0 accepted")
	}
	if err := validateBuckets(-1, -1); err == nil {
		t.Error("negative parameters accepted")
	}
	if err := validateBuckets(1<<31, 1); err == nil {
		t.Error("K beyond int32 accepted")
	}
}

func TestBucketReset(t *testing.T) {
	p := bucketPlan(t, 3, 3)
	b := p.Start()
	for i := 0; i < 7; i++ {
		p.step(&b, true)
	}
	b = p.Start()
	if b.Fill() != 0 || b.Level() != 0 {
		t.Fatal("reset did not clear state")
	}
}
