package core

import (
	"math"
	"testing"
)

// fuzzZ maps one fuzz byte to a standardized residual in [-4, 4).
func fuzzZ(b byte) float64 { return (float64(b) - 128) / 32 }

// fuzzShiftStreams builds two copies of the fuzzed residual stream, the
// second with a strictly larger constant shift added from the onset
// index on. Detection of the larger shift must never come later — the
// monotonicity law FuzzCUSUM checks.
func fuzzShiftStreams(raw []byte, onsetRaw, magRaw, extraRaw uint8) (onset int, s1, s2 float64) {
	if len(raw) == 0 {
		return 0, 0, 0.5
	}
	onset = int(onsetRaw) % len(raw)
	s1 = float64(magRaw%8) / 2            // [0, 3.5]
	s2 = s1 + float64(extraRaw%8)/2 + 0.5 // s2 > s1 always
	return onset, s1, s2
}

// FuzzCUSUM drives the CUSUM change-point statistic with arbitrary
// residual streams and checks: Step never panics, both one-sided sums
// stay finite and non-negative with run lengths consistent with them,
// and detection is monotone in shift magnitude — a larger constant
// shift added from the same onset is detected no later.
func FuzzCUSUM(f *testing.F) {
	f.Add([]byte{128, 128, 255, 255, 255, 255}, uint8(2), uint8(4), uint8(2))
	f.Add([]byte{0, 64, 128, 192, 255}, uint8(0), uint8(0), uint8(7))
	f.Add([]byte{}, uint8(3), uint8(1), uint8(1))
	f.Fuzz(func(t *testing.T, raw []byte, onsetRaw, magRaw, extraRaw uint8) {
		onset, s1, s2 := fuzzShiftStreams(raw, onsetRaw, magRaw, extraRaw)
		const slack, threshold = 0.5, 8.0
		run := func(shift float64) int {
			var c CUSUMChange
			for i, b := range raw {
				z := fuzzZ(b)
				if i >= onset {
					z += shift
				}
				detected, up := c.Step(z, slack, threshold)
				if math.IsNaN(c.Pos) || math.IsInf(c.Pos, 0) || c.Pos < 0 ||
					math.IsNaN(c.Neg) || math.IsInf(c.Neg, 0) || c.Neg < 0 {
					t.Fatalf("observation %d: sums escaped [0, inf): Pos=%v Neg=%v", i, c.Pos, c.Neg)
				}
				if (c.Pos > 0) != (c.PosRun > 0) || (c.Neg > 0) != (c.NegRun > 0) {
					t.Fatalf("observation %d: run lengths inconsistent: %+v", i, c)
				}
				if detected && up {
					return i
				}
			}
			return -1
		}
		idx1, idx2 := run(s1), run(s2)
		if idx1 >= 0 && (idx2 < 0 || idx2 > idx1) {
			t.Fatalf("shift %v detected at %d but larger shift %v at %d", s1, idx1, s2, idx2)
		}
	})
}
