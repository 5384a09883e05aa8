package main

import (
	"slices"
	"time"
)

// Host-speed calibration. The benchmark runs on a share of a machine
// whose speed follows its neighbours: on a 2-vCPU VM the same fleet-aging
// run (same seed, same binary) did 6588 to 8438 batches in 10 s, and
// within one run the mean batch time switched between about 0.9 and
// 1.6 ms from one second to the next. Timed alone, a run's figure says
// more about its neighbours than about the program.
//
// So the timed loop also times a fixed stdlib-only calibration loop
// every calEvery, between ops, and every op's wall time is converted to
// the time it would have taken on a host where that loop takes
// calNominalUs: wall × calNominalUs / c, where c is the median of the
// calibration samples nearest the op (calSpan on each side). The loop
// runs no code of the repository, so a change to the program moves the
// op times and not c; a slower neighbour moves both. The loop allocates
// nothing, so it starts no GC assist, and the median of nearby samples
// keeps one sample that a GC cycle or a preemption slowed from setting c.
const (
	calEvery     = 100 * time.Millisecond
	calWords     = 1 << 13
	calNominalUs = 1000.0
	calSpan      = 2
)

// calibrator records calibration samples taken between a run's ops.
type calibrator struct {
	buf  []uint64
	at   []int     // index of the op each sample was taken before
	us   []float64 // sample durations, µs
	last time.Time
}

func newCalibrator() *calibrator {
	return &calibrator{buf: make([]uint64, calWords)}
}

// due reports whether calEvery has passed since the last sample.
func (c *calibrator) due() bool { return time.Since(c.last) >= calEvery }

// run times the calibration loop once and returns its duration in µs:
// fill the buffer from a xorshift generator and sort it.
func (c *calibrator) run() float64 {
	start := time.Now()
	x := uint64(88172645463325252)
	for i := range c.buf {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		c.buf[i] = x
	}
	slices.Sort(c.buf)
	sentinelSink += c.buf[calWords/2]
	c.last = time.Now()
	return float64(c.last.Sub(start).Nanoseconds()) / 1e3
}

// sample records one calibration sample, taken before op number op.
func (c *calibrator) sample(op int) {
	us := c.run()
	c.at = append(c.at, op)
	c.us = append(c.us, us)
}

// scale returns the factor that converts a wall time measured right
// after it to the nominal calibration speed: calNominalUs over the
// median of 2*calSpan+1 fresh runs of the loop. Set-up times use it.
func (c *calibrator) scale() float64 {
	us := make([]float64, 2*calSpan+1)
	for i := range us {
		us[i] = c.run()
	}
	return calNominalUs / median(us)
}

// normalize converts op wall times (µs, in op order) to times at the
// nominal calibration speed. It needs a sample taken before op 0.
func (c *calibrator) normalize(durs []float64) []float64 {
	local := make([]float64, len(c.us))
	for k := range c.us {
		local[k] = median(c.us[max(0, k-calSpan):min(len(c.us), k+calSpan+1)])
	}
	out := make([]float64, len(durs))
	k := 0
	for i, d := range durs {
		for k+1 < len(c.at) && c.at[k+1] <= i {
			k++
		}
		out[i] = d * calNominalUs / local[k]
	}
	return out
}

// medianUs returns the median calibration sample, µs.
func (c *calibrator) medianUs() float64 { return median(c.us) }
