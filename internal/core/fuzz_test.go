package core

import (
	"math"
	"testing"
)

// FuzzBucketInvariants drives the bucket state machine with arbitrary
// exceed/recede patterns and checks that its state never escapes the
// paper's invariants: 0 <= d <= D and 0 <= N < K at all times, and a
// trigger always leaves the machine in its initial state.
func FuzzBucketInvariants(f *testing.F) {
	f.Add(uint8(1), uint8(1), []byte{0xFF, 0x00, 0xAA})
	f.Add(uint8(5), uint8(3), []byte{0xF0, 0x0F})
	f.Add(uint8(2), uint8(10), []byte{})
	f.Fuzz(func(t *testing.T, kRaw, dRaw uint8, pattern []byte) {
		k := int(kRaw%10) + 1
		d := int(dRaw%10) + 1
		p := bucketPlan(t, k, d)
		b := p.Start()
		for _, byteVal := range pattern {
			for bit := 0; bit < 8; bit++ {
				event := p.step(&b, byteVal>>bit&1 == 1)
				if b.Fill() < 0 || b.Fill() > d {
					t.Fatalf("fill %d escaped [0,%d]", b.Fill(), d)
				}
				if b.Level() < 0 || b.Level() >= k {
					t.Fatalf("level %d escaped [0,%d)", b.Level(), k)
				}
				if event == bucketTrigger && (b.Fill() != 0 || b.Level() != 0) {
					t.Fatalf("trigger left state fill=%d level=%d", b.Fill(), b.Level())
				}
			}
		}
	})
}

// FuzzSRAAObserve feeds arbitrary observation streams and checks the
// decision contract: a decision is only Evaluated on every n-th
// observation, sample means are finite for finite inputs, and Observe
// never panics.
func FuzzSRAAObserve(f *testing.F) {
	f.Add(uint8(2), []byte{1, 200, 3, 255})
	f.Add(uint8(1), []byte{0})
	f.Fuzz(func(t *testing.T, nRaw uint8, raw []byte) {
		n := int(nRaw%8) + 1
		det, err := NewSRAA(SRAAConfig{
			SampleSize: n, Buckets: 3, Depth: 2,
			Baseline: Baseline{Mean: 5, StdDev: 5},
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, b := range raw {
			x := float64(b) / 8 // observations in [0, ~32)
			dec := det.Observe(x)
			wantEval := (i+1)%n == 0
			if dec.Evaluated != wantEval {
				t.Fatalf("observation %d (n=%d): Evaluated=%v, want %v", i, n, dec.Evaluated, wantEval)
			}
			if dec.Evaluated && (math.IsNaN(dec.SampleMean) || math.IsInf(dec.SampleMean, 0)) {
				t.Fatalf("non-finite sample mean %v", dec.SampleMean)
			}
			if dec.Triggered && !dec.Evaluated {
				t.Fatal("trigger on a mid-sample observation")
			}
		}
	})
}

// FuzzSARAASampleSize checks that the acceleration rule keeps the
// sample size within [1, norig] for any parameters and any reachable
// level, including after arbitrary observation patterns.
func FuzzSARAASampleSize(f *testing.F) {
	f.Add(uint8(6), uint8(5), uint8(1), []byte{0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, nRaw, kRaw, dRaw uint8, raw []byte) {
		norig := int(nRaw%30) + 1
		k := int(kRaw%8) + 1
		d := int(dRaw%5) + 1
		det, err := NewSARAA(SARAAConfig{
			InitialSampleSize: norig, Buckets: k, Depth: d,
			Baseline: Baseline{Mean: 5, StdDev: 5},
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range raw {
			det.Observe(float64(b))
			if s := det.SampleSize(); s < 1 || s > norig {
				t.Fatalf("sample size %d escaped [1,%d] at level %d", s, norig, det.Internals().Level)
			}
		}
	})
}
