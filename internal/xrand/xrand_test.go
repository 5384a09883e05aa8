package xrand

import (
	"math"
	"math/bits"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := NewStream(42, 7)
	b := NewStream(42, 7)
	for i := 0; i < 1000; i++ {
		if got, want := a.Uint64(), b.Uint64(); got != want {
			t.Fatalf("draw %d: %d != %d for identical seed/stream", i, got, want)
		}
	}
}

func TestSeedSensitivity(t *testing.T) {
	a := NewStream(1, 0)
	b := NewStream(2, 0)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical draws out of 100", same)
	}
}

func TestStreamIndependence(t *testing.T) {
	a := NewStream(1, 1)
	b := NewStream(1, 2)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different streams produced %d identical draws out of 1000", same)
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 100_000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 returned %v outside [0,1)", v)
		}
	}
}

func TestFloat64Moments(t *testing.T) {
	r := New(5)
	const n = 500_000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := r.Float64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean-0.5) > 0.002 {
		t.Errorf("uniform mean = %v, want 0.5 +/- 0.002", mean)
	}
	if math.Abs(variance-1.0/12) > 0.002 {
		t.Errorf("uniform variance = %v, want 1/12 +/- 0.002", variance)
	}
}

func TestExpMoments(t *testing.T) {
	tests := []struct {
		name string
		rate float64
	}{
		{"rate below one", 0.2},
		{"unit rate", 1},
		{"rate above one", 3.5},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			r := New(11)
			const n = 400_000
			var sum, sumSq float64
			for i := 0; i < n; i++ {
				v := r.Exp(tt.rate)
				if v < 0 {
					t.Fatalf("Exp returned negative value %v", v)
				}
				sum += v
				sumSq += v * v
			}
			mean := sum / n
			wantMean := 1 / tt.rate
			if math.Abs(mean-wantMean)/wantMean > 0.01 {
				t.Errorf("Exp(%v) mean = %v, want %v within 1%%", tt.rate, mean, wantMean)
			}
			variance := sumSq/n - mean*mean
			wantVar := 1 / (tt.rate * tt.rate)
			if math.Abs(variance-wantVar)/wantVar > 0.03 {
				t.Errorf("Exp(%v) variance = %v, want %v within 3%%", tt.rate, variance, wantVar)
			}
		})
	}
}

func TestExpPanicsOnBadRate(t *testing.T) {
	for _, rate := range []float64{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Exp(%v) did not panic", rate)
				}
			}()
			New(1).Exp(rate)
		}()
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(9)
	if err := quick.Check(func(nRaw uint16) bool {
		n := int(nRaw%1000) + 1
		v := r.Intn(n)
		return v >= 0 && v < n
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestIntnUniform(t *testing.T) {
	r := New(13)
	const n, draws = 10, 200_000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want)/want > 0.03 {
			t.Errorf("Intn(%d) bucket %d has %d draws, want %.0f +/- 3%%", n, i, c, want)
		}
	}
}

func TestIntnPanicsOnBadArg(t *testing.T) {
	for _, n := range []int{0, -5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Intn(%d) did not panic", n)
				}
			}()
			New(1).Intn(n)
		}()
	}
}

func TestNormMoments(t *testing.T) {
	r := New(17)
	const n = 400_000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := r.Norm()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	if math.Abs(mean) > 0.01 {
		t.Errorf("Norm mean = %v, want 0 +/- 0.01", mean)
	}
	if v := sumSq / n; math.Abs(v-1) > 0.02 {
		t.Errorf("Norm second moment = %v, want 1 +/- 0.02", v)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(23)
	for _, n := range []int{0, 1, 2, 10, 100} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) length = %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) = %v is not a permutation", n, p)
			}
			seen[v] = true
		}
	}
}

func TestFloat64OpenNeverZero(t *testing.T) {
	r := New(29)
	for i := 0; i < 100_000; i++ {
		if v := r.Float64Open(); v <= 0 || v >= 1 {
			t.Fatalf("Float64Open returned %v outside (0,1)", v)
		}
	}
}

func TestMul128KnownProducts(t *testing.T) {
	tests := []struct {
		a, b   uint64
		hi, lo uint64
	}{
		{0, 0, 0, 0},
		{1, 1, 0, 1},
		{math.MaxUint64, 1, 0, math.MaxUint64},
		{math.MaxUint64, math.MaxUint64, math.MaxUint64 - 1, 1},
		{1 << 32, 1 << 32, 1, 0},
		{0xDEADBEEF, 0x10001, 0, 0xDEADBEEF * 0x10001 & math.MaxUint64},
	}
	for _, tt := range tests {
		hi, lo := mul128(tt.a, tt.b)
		if hi != tt.hi || lo != tt.lo {
			t.Errorf("mul128(%#x, %#x) = (%#x, %#x), want (%#x, %#x)",
				tt.a, tt.b, hi, lo, tt.hi, tt.lo)
		}
		hi, lo = bits.Mul64(tt.a, tt.b)
		if hi != tt.hi || lo != tt.lo {
			t.Errorf("bits.Mul64(%#x, %#x) = (%#x, %#x), want (%#x, %#x)",
				tt.a, tt.b, hi, lo, tt.hi, tt.lo)
		}
	}
}
