// Package xrand provides a deterministic, splittable pseudo-random number
// generator and the samplers needed by the simulators in this repository.
//
// The generator is PCG-XSH-RR 64/32 combined into a 64-bit output
// (two independent 32-bit outputs per 64-bit value would bias the stream,
// so we use the PCG-XSL-RR 128/64 variant implemented with 64-bit halves).
// Every replication of an experiment draws from an independent stream so
// results are reproducible bit-for-bit across platforms and Go versions,
// unlike math/rand whose algorithm is unspecified across releases.
package xrand

import (
	"math"
	"math/bits"
)

// pcg128 state constants (PCG-XSL-RR 128/64, O'Neill 2014).
const (
	pcgMulHi = 2549297995355413924
	pcgMulLo = 4865540595714422341
	pcgIncHi = 6364136223846793005
	pcgIncLo = 1442695040888963407
)

// lookN is the size of the lookahead block: the generator produces its
// raw outputs lookN at a time and every method consumes them strictly
// in order, so buffering never changes a draw. It is a power of two, so
// masking a block index with lookN-1 lets the compiler drop the bounds
// check.
const lookN = 32

// Rand is a PCG-XSL-RR 128/64 pseudo-random number generator.
// The zero value is not usable; construct with New or NewStream.
// Rand is not safe for concurrent use; give each goroutine its own stream.
//
// Rand keeps a lookahead block of the next lookN raw outputs. The first
// Exp after a refill computes the negated logarithms of all the outputs
// not yet read in one loop whose iterations are independent, so the CPU
// overlaps the latency of math.Log instead of paying it once per draw.
type Rand struct {
	hi, lo uint64 // 128-bit state, advanced past every output in out
	incHi  uint64 // stream selector (must be odd in the low half)
	incLo  uint64
	left   uint // outputs of out not yet read; out[lookN-left] is next
	logged bool // nlog holds the logarithms of the unread outputs
	out    [lookN]uint64
	// nlog[i] = -math.Log(float64(out[i]>>11) / (1 << 53)).
	nlog [lookN]float64
}

// New returns a generator seeded with seed on the default stream.
func New(seed uint64) *Rand {
	return NewStream(seed, 0)
}

// NewStream returns a generator seeded with seed on the given stream.
// Distinct stream values yield statistically independent sequences for
// the same seed, which is how replications are made independent.
func NewStream(seed, stream uint64) *Rand {
	r := &Rand{
		// The increment selects the stream; it must be odd.
		incHi: stream,
		incLo: stream<<1 | 1,
	}
	r.hi, r.lo = 0, 0
	r.step()
	r.lo += seed
	r.hi += stream ^ seed<<1
	r.step()
	r.step()
	return r
}

// step advances the 128-bit LCG state.
func (r *Rand) step() {
	// state = state * mul + inc (128-bit arithmetic).
	hi, lo := bits.Mul64(r.lo, pcgMulLo)
	hi += r.hi*pcgMulLo + r.lo*pcgMulHi
	lo += r.incLo
	if lo < r.incLo {
		hi++
	}
	hi += r.incHi
	r.hi, r.lo = hi, lo
}

// refill generates the next lookN raw outputs into the block.
func (r *Rand) refill() {
	for i := range r.out {
		r.step()
		// XSL-RR output function: xor the halves, rotate by the top 6 bits.
		r.out[i] = bits.RotateLeft64(r.hi^r.lo, -int(r.hi>>58))
	}
	r.left = lookN
	r.logged = false
}

// fillLogs computes nlog for the outputs of the block not yet read.
func (r *Rand) fillLogs() {
	for i := lookN - r.left; i < lookN; i++ {
		r.nlog[i] = -math.Log(float64(r.out[i]>>11) / (1 << 53))
	}
	r.logged = true
}

// Uint64 returns a uniformly distributed 64-bit value.
func (r *Rand) Uint64() uint64 {
	if r.left == 0 {
		r.refill()
	}
	x := r.out[(lookN-r.left)&(lookN-1)]
	r.left--
	return x
}

// Float64 returns a uniformly distributed value in [0, 1).
func (r *Rand) Float64() float64 {
	// 53 random bits scaled into [0,1).
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Float64Open returns a uniformly distributed value in (0, 1),
// suitable for inversion sampling of distributions with infinite
// density or support endpoints.
func (r *Rand) Float64Open() float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return u
		}
	}
}

// Exp returns an exponentially distributed value with the given rate
// (mean 1/rate), sampled by inversion. It panics if rate <= 0 because a
// non-positive rate is a programming error, not an input error.
func (r *Rand) Exp(rate float64) float64 {
	if rate <= 0 {
		panic("xrand: Exp rate must be positive")
	}
	// Same draws and arithmetic as -math.Log(r.Float64Open()) / rate,
	// with the logarithm read from the block.
	for {
		if r.left == 0 {
			r.refill()
		}
		if !r.logged {
			r.fillLogs()
		}
		i := (lookN - r.left) & (lookN - 1)
		r.left--
		if r.out[i]>>11 != 0 {
			return r.nlog[i] / rate
		}
	}
}

// Intn returns a uniformly distributed int in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn argument must be positive")
	}
	// Lemire's nearly-divisionless bounded sampling.
	bound := uint64(n)
	hi, lo := bits.Mul64(r.Uint64(), bound)
	if lo < bound {
		threshold := -bound % bound
		for lo < threshold {
			hi, lo = bits.Mul64(r.Uint64(), bound)
		}
	}
	return int(hi)
}

// Norm returns a standard normally distributed value using the
// Marsaglia polar method.
func (r *Rand) Norm() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// Perm returns a uniformly random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}
