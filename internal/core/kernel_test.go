package core

import (
	"math"
	"math/rand"
	"testing"
)

// pseudoDetector is the oracle for the shared kernel: a transcription of
// the pseudo-code of the paper's Figs. 6–8 written without the kernel.
// It keeps the current sample in a slice, applies the bucket rules as the
// pseudo-code lists them, recomputes the sample size from the bucket
// pointer after every step, and recomputes the target with math.Sqrt on
// every block.
type pseudoDetector struct {
	family string // "sraa", "saraa" or "clta"
	norig  int    // configured (initial) sample size
	K, D   int    // buckets and depth; 0 for clta
	q      float64
	base   Baseline

	window []float64 // observations of the current sample
	n      int       // sample size in effect
	d, N   int       // ball count and bucket pointer
}

func newPseudoDetector(family string, norig, k, d int, q float64, base Baseline) *pseudoDetector {
	o := &pseudoDetector{family: family, norig: norig, q: q, base: base, n: norig}
	if family != "clta" {
		o.K, o.D = k, d
	}
	return o
}

func (o *pseudoDetector) target() float64 {
	mu, sigma := o.base.Mean, o.base.StdDev
	switch o.family {
	case "sraa":
		return mu + float64(o.N)*sigma
	case "saraa":
		return mu + float64(o.N)*sigma/math.Sqrt(float64(o.n))
	}
	return mu + o.q*sigma/math.Sqrt(float64(o.n))
}

// bucket applies the ball-and-bucket rules of Figs. 6 and 7 in the order
// the pseudo-code lists them and reports whether the K-th bucket
// overflowed.
func (o *pseudoDetector) bucket(exceeded bool) bool {
	if exceeded {
		o.d++
	} else {
		o.d--
	}
	if o.d > o.D {
		o.d = 0
		o.N++
	}
	if o.d < 0 && o.N > 0 {
		o.d = o.D
		o.N--
	}
	if o.d < 0 && o.N == 0 {
		o.d = 0
	}
	if o.N == o.K {
		o.d, o.N = 0, 0
		return true
	}
	return false
}

func (o *pseudoDetector) observe(x float64) Decision {
	o.window = append(o.window, x)
	if len(o.window) < o.n {
		return Decision{Level: o.N, Fill: o.d}
	}
	sum := 0.0
	for _, v := range o.window {
		sum += v
	}
	xbar := sum / float64(o.n)
	o.window = o.window[:0]
	target := o.target()
	dec := Decision{Evaluated: true, SampleMean: xbar, Target: target}
	if o.family == "clta" {
		dec.Triggered = xbar > target
		return dec
	}
	dec.Triggered = o.bucket(xbar > target)
	if o.family == "saraa" {
		// n = floor(1 + (n_orig-1)(1 - N/K)), exactly, in integers.
		o.n = 1 + (o.norig-1)*(o.K-o.N)/o.K
	}
	dec.Level, dec.Fill = o.N, o.d
	return dec
}

func (o *pseudoDetector) internals() Internals {
	return Internals{
		Level: o.N, Buckets: o.K, Fill: o.d, Depth: o.D,
		SampleSize: o.n, SampleFill: len(o.window), Target: o.target(),
	}
}

// kernelCase is one configuration the kernel is checked on.
type kernelCase struct {
	family  string
	n, k, d int
	q       float64
	cfgBase Baseline // the configured baseline
	altBase Baseline // a re-estimated baseline, as the shift layer passes
}

// build returns the case's configured detector and its plan.
func (c kernelCase) build(t testing.TB) (Detector, Plan) {
	t.Helper()
	var (
		det Detector
		p   Plan
		err error
	)
	// Each detector's Config is rebuilt from its plan and baseline.
	var same bool
	switch c.family {
	case "sraa":
		cfg := SRAAConfig{SampleSize: c.n, Buckets: c.k, Depth: c.d, Baseline: c.cfgBase}
		var d *SRAA
		d, err = NewSRAA(cfg)
		det, p, same = d, cfg.Plan(), err == nil && d.Config() == cfg
	case "saraa":
		cfg := SARAAConfig{InitialSampleSize: c.n, Buckets: c.k, Depth: c.d, Baseline: c.cfgBase}
		var d *SARAA
		d, err = NewSARAA(cfg)
		det, p, same = d, cfg.Plan(), err == nil && d.Config() == cfg
	default:
		cfg := CLTAConfig{SampleSize: c.n, Quantile: c.q, Baseline: c.cfgBase}
		var d *CLTA
		d, err = NewCLTA(cfg)
		det, p, same = d, cfg.Plan(), err == nil && d.Config() == cfg
	}
	if err != nil {
		t.Fatalf("%+v: %v", c, err)
	}
	if !same {
		t.Fatalf("%+v: Config() does not return the configuration the detector was built with", c)
	}
	return det, p
}

// checkKernelAgainstPseudoCode feeds xs to the pointer detector and to a
// bare Plan/State pair stepped with the case's alternate baseline, and
// compares every Decision and Internals with a pseudo-code oracle run on
// the same baseline.
func checkKernelAgainstPseudoCode(t testing.TB, c kernelCase, xs []float64) {
	t.Helper()
	det, p := c.build(t)
	ref := newPseudoDetector(c.family, c.n, c.k, c.d, c.q, c.cfgBase)
	alt := newPseudoDetector(c.family, c.n, c.k, c.d, c.q, c.altBase)
	st := p.Start()
	for i, x := range xs {
		got, want := det.Observe(x), ref.observe(x)
		if got != want {
			t.Fatalf("%+v obs %d (x=%v): detector %+v, pseudo-code %+v", c, i, x, got, want)
		}
		if gi, wi := det.(Instrumented).Internals(), ref.internals(); gi != wi {
			t.Fatalf("%+v obs %d: detector internals %+v, pseudo-code %+v", c, i, gi, wi)
		}

		var d Decision
		if mean, done := st.Add(x); done {
			p.Decide(&st, c.altBase, mean, &d)
		} else {
			d = Decision{Level: st.Level(), Fill: st.Fill()}
		}
		if want := alt.observe(x); d != want {
			t.Fatalf("%+v obs %d (x=%v): kernel on the re-estimated baseline %+v, pseudo-code %+v", c, i, x, d, want)
		}
		if st.SampleSize() != alt.n || st.Level() != alt.N || st.Fill() != alt.d || p.target(&st, c.altBase) != alt.target() {
			t.Fatalf("%+v obs %d: kernel state n=%d N=%d d=%d target=%v, pseudo-code n=%d N=%d d=%d target=%v",
				c, i, st.SampleSize(), st.Level(), st.Fill(), p.target(&st, c.altBase), alt.n, alt.N, alt.d, alt.target())
		}
	}
}

var kernelFamilies = [...]string{"sraa", "saraa", "clta"}

// TestKernelMatchesPseudoCode checks the shared kernel, through both the
// pointer detectors and a bare Plan/State pair on a re-estimated
// baseline, against the pseudo-code oracle over random configurations
// and observation streams that climb, hover and recede.
func TestKernelMatchesPseudoCode(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for trial := 0; trial < 300; trial++ {
		c := kernelCase{
			family:  kernelFamilies[trial%3],
			n:       1 + rng.Intn(12),
			k:       1 + rng.Intn(6),
			d:       1 + rng.Intn(4),
			q:       0.5 + 3*rng.Float64(),
			cfgBase: Baseline{Mean: 10 * rng.Float64(), StdDev: 0.1 + 5*rng.Float64()},
			altBase: Baseline{Mean: 10 * rng.Float64(), StdDev: 0.1 + 5*rng.Float64()},
		}
		xs := make([]float64, 2000)
		drift := 0.0
		for i := range xs {
			if i%400 == 0 {
				drift = rng.Float64()*4 - 1 // per-phase level, in σ
			}
			xs[i] = c.cfgBase.Mean + (drift+rng.NormFloat64())*c.cfgBase.StdDev
		}
		checkKernelAgainstPseudoCode(t, c, xs)
	}
}

// FuzzKernelMatchesPseudoCode is TestKernelMatchesPseudoCode with
// fuzzer-chosen n, K, D, q, baselines and observations.
func FuzzKernelMatchesPseudoCode(f *testing.F) {
	f.Add(uint8(0), uint8(4), uint8(3), uint8(2), uint8(20), int8(5), uint8(5), int8(-3), uint8(9), []byte{0, 255, 128, 200, 200, 200, 10})
	f.Add(uint8(1), uint8(6), uint8(5), uint8(1), uint8(20), int8(5), uint8(5), int8(8), uint8(2), []byte{255, 255, 255, 255, 255, 255, 0, 0, 0})
	f.Add(uint8(2), uint8(3), uint8(0), uint8(0), uint8(40), int8(0), uint8(1), int8(1), uint8(1), []byte{100, 150, 130})
	// Block means equal to the level-0 target: the comparison is strict.
	f.Add(uint8(0), uint8(0), uint8(1), uint8(0), uint8(0), int8(0), uint8(7), int8(0), uint8(7), []byte{96, 96, 96})
	f.Add(uint8(2), uint8(0), uint8(0), uint8(0), uint8(15), int8(0), uint8(7), int8(0), uint8(7), []byte{104, 104})
	f.Fuzz(func(t *testing.T, fam, nRaw, kRaw, dRaw, qRaw uint8, mu int8, sd uint8, altMu int8, altSD uint8, raw []byte) {
		c := kernelCase{
			family:  kernelFamilies[int(fam)%3],
			n:       int(nRaw%32) + 1,
			k:       int(kRaw%8) + 1,
			d:       int(dRaw%6) + 1,
			q:       float64(qRaw%80+1) / 16,
			cfgBase: Baseline{Mean: float64(mu) / 4, StdDev: float64(sd%64+1) / 8},
			altBase: Baseline{Mean: float64(altMu) / 4, StdDev: float64(altSD%64+1) / 8},
		}
		xs := make([]float64, len(raw))
		for i, b := range raw {
			xs[i] = float64(b)/8 - 12 // [-12, 20), straddling both baselines
		}
		checkKernelAgainstPseudoCode(t, c, xs)
	})
}
