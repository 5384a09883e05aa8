package xrand

import (
	"math"
	"math/bits"
	"testing"
)

// mul128 is a schoolbook 128-bit product from 32-bit halves. The
// reference generator uses it in place of bits.Mul64, so Rand and the
// reference share no multiplication code.
func mul128(a, b uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	a0, a1 := a&mask32, a>>32
	b0, b1 := b&mask32, b>>32
	t := a1*b0 + (a0*b0)>>32
	w1 := t & mask32
	w2 := t >> 32
	w1 += a0 * b1
	hi = a1*b1 + w2 + (w1 >> 32)
	lo = a * b
	return hi, lo
}

// refRand is a transcription of the unbuffered generator: every method
// steps the PCG state once per raw output, and Exp calls math.Log on the
// value Float64Open returns. Rand must match it bit for bit.
type refRand struct {
	hi, lo, incHi, incLo uint64
}

func newRef(seed, stream uint64) *refRand {
	r := &refRand{incHi: stream, incLo: stream<<1 | 1}
	r.step()
	r.lo += seed
	r.hi += stream ^ seed<<1
	r.step()
	r.step()
	return r
}

func (r *refRand) step() {
	hi, lo := mul128(r.lo, pcgMulLo)
	hi += r.hi*pcgMulLo + r.lo*pcgMulHi
	lo += r.incLo
	if lo < r.incLo {
		hi++
	}
	hi += r.incHi
	r.hi, r.lo = hi, lo
}

func (r *refRand) Uint64() uint64 {
	r.step()
	x := r.hi ^ r.lo
	rot := uint(r.hi >> 58)
	return x>>rot | x<<((64-rot)&63)
}

func (r *refRand) Float64() float64 { return float64(r.Uint64()>>11) / (1 << 53) }

func (r *refRand) Float64Open() float64 {
	for {
		if u := r.Float64(); u > 0 {
			return u
		}
	}
}

func (r *refRand) Exp(rate float64) float64 { return -math.Log(r.Float64Open()) / rate }

func (r *refRand) Intn(n int) int {
	bound := uint64(n)
	hi, lo := mul128(r.Uint64(), bound)
	if lo < bound {
		threshold := -bound % bound
		for lo < threshold {
			hi, lo = mul128(r.Uint64(), bound)
		}
	}
	return int(hi)
}

func (r *refRand) Norm() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

func (r *refRand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// drawBoth makes call op on both generators and fails t unless their
// results have identical bits. rate is used by Exp, n by Intn and Perm.
func drawBoth(t *testing.T, r *Rand, ref *refRand, op byte, rate float64, n int) {
	t.Helper()
	var got, want uint64
	name := ""
	switch op % 7 {
	case 0:
		name, got, want = "Uint64", r.Uint64(), ref.Uint64()
	case 1:
		name, got, want = "Float64", math.Float64bits(r.Float64()), math.Float64bits(ref.Float64())
	case 2:
		name, got, want = "Float64Open", math.Float64bits(r.Float64Open()), math.Float64bits(ref.Float64Open())
	case 3:
		name, got, want = "Exp", math.Float64bits(r.Exp(rate)), math.Float64bits(ref.Exp(rate))
	case 4:
		name, got, want = "Intn", uint64(r.Intn(n)), uint64(ref.Intn(n))
	case 5:
		name, got, want = "Norm", math.Float64bits(r.Norm()), math.Float64bits(ref.Norm())
	case 6:
		name = "Perm"
		gp, wp := r.Perm(n%8), ref.Perm(n%8)
		for i := range wp {
			if gp[i] != wp[i] {
				t.Fatalf("Perm(%d) = %v, reference %v", n%8, gp, wp)
			}
		}
		return
	}
	if got != want {
		t.Fatalf("%s (rate %v, n %d) = %#x, reference %#x", name, rate, n, got, want)
	}
}

// FuzzRandMatchesReference drives the lookahead generator and the
// unbuffered reference through the same fuzzer-chosen call sequence.
// Each byte of ops picks a method (mod 7) and, through its high bits,
// one of rates and a bound, so Exp runs of every length cross block
// boundaries at every offset.
func FuzzRandMatchesReference(f *testing.F) {
	f.Add(uint64(1), uint64(0), []byte{3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 0, 3}, 0.2)
	f.Add(uint64(3), uint64(1001), []byte{0, 1, 2, 3, 4, 5, 6, 3, 3, 5, 5, 6, 6, 6, 6, 6, 6, 3, 10, 17, 24}, 1.6)
	f.Add(uint64(11), uint64(1), []byte{5, 3, 5, 3, 12, 19, 26, 33, 40, 47, 54, 61, 68, 75}, 3.7)
	f.Fuzz(func(t *testing.T, seed, stream uint64, ops []byte, rate float64) {
		if !(rate > 0) || math.IsInf(rate, 0) {
			rate = 0.2
		}
		rates := [4]float64{rate, 0.2, 1.6, 3.7}
		r, ref := NewStream(seed, stream), newRef(seed, stream)
		for _, op := range ops {
			drawBoth(t, r, ref, op, rates[op>>3&3], int(op>>5)+1+int(op>>3&3)*997)
		}
		for i := 0; i < 2*lookN; i++ {
			drawBoth(t, r, ref, 0, 1, 1)
		}
	})
}

// TestExpSkipsZeroAtEveryLookaheadPosition plants a raw output whose top
// 53 bits are zero (a Float64 of exactly 0) at the start of a block, in
// its middle and at its last slot, where the retry crosses into the next
// refill. Exp and Float64Open must skip it and return the value the
// reference draws from the output after it; the streams must stay in
// step afterwards. Each plant is tried with the block's logarithms
// computed before the plant and after it.
func TestExpSkipsZeroAtEveryLookaheadPosition(t *testing.T) {
	for _, pos := range []int{0, lookN / 2, lookN - 1} {
		for _, op := range []byte{2, 3} {
			for _, logsFirst := range []bool{false, true} {
				r, ref := NewStream(7, 5), newRef(7, 5)
				r.refill()
				if logsFirst {
					r.fillLogs()
				}
				for i := 0; i < pos; i++ {
					drawBoth(t, r, ref, 0, 1, 1)
				}
				r.out[pos] = 1<<11 - 1
				ref.Uint64()
				drawBoth(t, r, ref, op, 0.2, 1)
				if pos == lookN-1 && r.left != lookN-1 {
					t.Fatalf("plant at %d: %d outputs left after the retry, want %d", pos, r.left, lookN-1)
				}
				for i := 0; i < 2*lookN; i++ {
					drawBoth(t, r, ref, byte(i), 0.2, 16)
				}
			}
		}
	}
}

func TestMul128MatchesBitsMul64(t *testing.T) {
	r := New(31)
	for i := 0; i < 100_000; i++ {
		a, b := r.Uint64(), r.Uint64()
		if i%4 == 0 {
			b >>= r.Uint64() % 64
		}
		hi, lo := bits.Mul64(a, b)
		if whi, wlo := mul128(a, b); hi != whi || lo != wlo {
			t.Fatalf("bits.Mul64(%#x, %#x) = (%#x, %#x), schoolbook (%#x, %#x)", a, b, hi, lo, whi, wlo)
		}
	}
}

// TestRandDoesNotAllocate pins every method but Perm, which returns a
// fresh slice, at zero allocations, refills included.
func TestRandDoesNotAllocate(t *testing.T) {
	r := New(37)
	for _, tc := range []struct {
		name string
		draw func()
	}{
		{"Uint64", func() { r.Uint64() }},
		{"Float64", func() { r.Float64() }},
		{"Float64Open", func() { r.Float64Open() }},
		{"Exp", func() { r.Exp(0.2) }},
		{"Intn", func() { r.Intn(1000) }},
		{"Norm", func() { r.Norm() }},
	} {
		if a := testing.AllocsPerRun(3*lookN, tc.draw); a != 0 {
			t.Errorf("%s allocates %v times per call, want 0", tc.name, a)
		}
	}
}

var sinkU uint64
var sinkF float64

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		sinkU += r.Uint64()
	}
}

func BenchmarkFloat64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		sinkF += r.Float64()
	}
}

func BenchmarkExp(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		sinkF += r.Exp(0.2)
	}
}

func BenchmarkNorm(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		sinkF += r.Norm()
	}
}
