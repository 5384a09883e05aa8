package conformance

import (
	"bytes"
	"fmt"
	"math"

	"rejuv/internal/core"
	"rejuv/internal/journal"
)

// Family names one detector family together with factories the
// metamorphic laws exercise. Laws that transform the observation
// stream use Scaled to build the detector that watches the transformed
// stream.
type Family struct {
	// Name identifies the family in test output and journal metadata.
	Name string
	// New builds a fresh detector with the family's reference
	// parameters.
	New func() (core.Detector, error)
	// Scaled builds a detector for observations that went through the
	// affine map x -> a*x + b (a > 0): the baseline moves to
	// {a*Mean + b, a*StdDev}. For the adaptive family the factory is
	// independent of (a, b) because the baseline is learned from the
	// transformed warmup.
	Scaled func(a, b float64) func() (core.Detector, error)
	// Windowed is the sample-window size n for detectors that evaluate
	// on completed samples (0 for per-observation detectors); the
	// permutation-invariance law shuffles inside windows of this size.
	Windowed int
	// Stateful marks families whose decision at one observation depends
	// on previous windows (EWMA/CUSUM/Adaptive smooth or accumulate
	// across evaluations), which exempts them from laws that only hold
	// for window-local detectors.
	Stateful bool
}

// Families returns the eight detector families of internal/core with
// the reference parameters the conformance laws pin, all judged
// against the given healthy baseline.
func Families(base core.Baseline) []Family {
	scaledBase := func(a, b float64) core.Baseline {
		return core.Baseline{Mean: a*base.Mean + b, StdDev: a * base.StdDev}
	}
	return []Family{
		{
			Name: "SRAA",
			New: func() (core.Detector, error) {
				return core.NewSRAA(core.SRAAConfig{SampleSize: 4, Buckets: 5, Depth: 3, Baseline: base})
			},
			Scaled: func(a, b float64) func() (core.Detector, error) {
				return func() (core.Detector, error) {
					return core.NewSRAA(core.SRAAConfig{SampleSize: 4, Buckets: 5, Depth: 3, Baseline: scaledBase(a, b)})
				}
			},
			Windowed: 4,
		},
		{
			Name: "SARAA",
			New: func() (core.Detector, error) {
				return core.NewSARAA(core.SARAAConfig{InitialSampleSize: 6, Buckets: 5, Depth: 3, Baseline: base})
			},
			Scaled: func(a, b float64) func() (core.Detector, error) {
				return func() (core.Detector, error) {
					return core.NewSARAA(core.SARAAConfig{InitialSampleSize: 6, Buckets: 5, Depth: 3, Baseline: scaledBase(a, b)})
				}
			},
			// SARAA windows shrink with the bucket level, so only the
			// level-0 window size is declared; the permutation law
			// handles the shrink by reading evaluation boundaries.
			Windowed: 6,
		},
		{
			Name: "Static",
			New: func() (core.Detector, error) {
				return core.NewStatic(5, 3, base)
			},
			Scaled: func(a, b float64) func() (core.Detector, error) {
				return func() (core.Detector, error) {
					return core.NewStatic(5, 3, scaledBase(a, b))
				}
			},
			Windowed: 1,
		},
		{
			Name: "CLTA",
			New: func() (core.Detector, error) {
				return core.NewCLTA(core.CLTAConfig{SampleSize: 10, Quantile: 1.96, Baseline: base})
			},
			Scaled: func(a, b float64) func() (core.Detector, error) {
				return func() (core.Detector, error) {
					return core.NewCLTA(core.CLTAConfig{SampleSize: 10, Quantile: 1.96, Baseline: scaledBase(a, b)})
				}
			},
			Windowed: 10,
		},
		{
			Name: "Shewhart",
			New: func() (core.Detector, error) {
				return core.NewShewhart(3, base)
			},
			Scaled: func(a, b float64) func() (core.Detector, error) {
				return func() (core.Detector, error) {
					return core.NewShewhart(3, scaledBase(a, b))
				}
			},
			Windowed: 1,
		},
		{
			Name: "EWMA",
			New: func() (core.Detector, error) {
				return core.NewEWMA(0.2, 3, base)
			},
			Scaled: func(a, b float64) func() (core.Detector, error) {
				return func() (core.Detector, error) {
					return core.NewEWMA(0.2, 3, scaledBase(a, b))
				}
			},
			Windowed: 1,
			Stateful: true,
		},
		{
			Name: "CUSUM",
			New: func() (core.Detector, error) {
				return core.NewCUSUM(0.5, 5, base)
			},
			Scaled: func(a, b float64) func() (core.Detector, error) {
				return func() (core.Detector, error) {
					return core.NewCUSUM(0.5, 5, scaledBase(a, b))
				}
			},
			Windowed: 1,
			Stateful: true,
		},
		{
			Name: "Adaptive",
			New: func() (core.Detector, error) {
				return core.NewAdaptive(64, func(b core.Baseline) (core.Detector, error) {
					return core.NewSRAA(core.SRAAConfig{SampleSize: 2, Buckets: 5, Depth: 3, Baseline: b})
				})
			},
			// The adaptive wrapper learns its baseline from the warmup
			// observations, so the transformed stream yields the
			// transformed baseline with no reconfiguration.
			Scaled: func(a, b float64) func() (core.Detector, error) {
				return func() (core.Detector, error) {
					return core.NewAdaptive(64, func(b core.Baseline) (core.Detector, error) {
						return core.NewSRAA(core.SRAAConfig{SampleSize: 2, Buckets: 5, Depth: 3, Baseline: b})
					})
				}
			},
			Windowed: 2,
			Stateful: true,
		},
	}
}

// RebasedFamily returns the family with its factory wrapped in the
// workload-shift layer (core.Rebase): the change-point rule rebaselines
// on workload shifts and passes software aging through to the family's
// detector. base must be the baseline fam.New judges against. Committed
// rebaselines restart the detector in place at the re-estimated
// baseline, so every family — including the adaptive one, which
// relearns its own baseline instead — runs under the shift conformance
// laws without per-family wiring, and pre-shift behaviour is exactly
// the bare family's.
func RebasedFamily(fam Family, cfg core.ShiftConfig, base core.Baseline) Family {
	out := fam
	out.New = func() (core.Detector, error) {
		return core.NewRebase(cfg, base, func(core.Baseline) (core.Detector, error) {
			return fam.New()
		})
	}
	return out
}

// RunTrace feeds the trace through the detector and returns the full
// decision stream, one Decision per observation. Triggers reset the
// detector, mirroring how the simulation model rejuvenates on trigger.
func RunTrace(det core.Detector, trace []float64) []core.Decision {
	ds := make([]core.Decision, len(trace))
	for i, x := range trace {
		ds[i] = det.Observe(x)
		if ds[i].Triggered {
			det.Reset()
		}
	}
	return ds
}

// RunJournaled feeds the trace through a detector built by factory
// while journaling it as one replication into an in-memory binary
// flight-recorder journal, then replays the journal through a second
// detector from the same factory. It returns the live decision stream
// and the replay report; rep.Identical() is the determinism proof the
// laws assert on every run. The journaling protocol mirrors
// internal/ecommerce: Observe before the step, Decision only when the
// step evaluated or triggered, detector Reset plus a journal Reset
// record after every trigger. Detectors that re-estimate their baseline
// (core.Rebaseliner) additionally journal every committed rebaseline,
// which the replay verifies bit for bit against its own detector's
// committed baseline.
func RunJournaled(name string, factory func() (core.Detector, error), trace []float64) ([]core.Decision, journal.ReplayReport, error) {
	det, err := factory()
	if err != nil {
		return nil, journal.ReplayReport{}, fmt.Errorf("conformance: factory: %w", err)
	}
	reb, _ := det.(core.Rebaseliner)
	var lastReb uint64
	var buf bytes.Buffer
	jw := journal.NewWriter(&buf, journal.Meta{CreatedBy: "conformance", Detector: name})
	jw.RepStart(0, 0, 0, 0)
	ds := make([]core.Decision, len(trace))
	for i, x := range trace {
		t := float64(i)
		jw.Observe(t, 0, x)
		d := det.Observe(x)
		ds[i] = d
		if reb != nil {
			if n := reb.Rebaselines(); n != lastReb {
				lastReb = n
				b := reb.CurrentBaseline()
				jw.Rebaseline(t, 0, b.Mean, b.StdDev)
			}
		}
		if d.Evaluated || d.Triggered {
			var in core.Internals
			if instr, ok := det.(core.Instrumented); ok {
				in = instr.Internals()
			}
			jw.Decision(t, 0, d, in, false, 0)
		}
		if d.Triggered {
			det.Reset()
			jw.Reset(t)
		}
	}
	if err := jw.Err(); err != nil {
		return nil, journal.ReplayReport{}, fmt.Errorf("conformance: journal writer: %w", err)
	}
	jr, err := journal.NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		return nil, journal.ReplayReport{}, fmt.Errorf("conformance: journal reader: %w", err)
	}
	rep, err := journal.Replay(jr, func(string) (core.Detector, error) { return factory() })
	if err != nil {
		return nil, journal.ReplayReport{}, fmt.Errorf("conformance: replay: %w", err)
	}
	return ds, rep, nil
}

// SameDecisions compares two decision streams on their discrete fields
// (Triggered, Evaluated, Level, Fill) and, when exact is true, also on
// the float fields bit for bit. It returns the index of the first
// difference and whether the streams match (-1 when they do).
func SameDecisions(a, b []core.Decision, exact bool) (int, bool) {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		da, db := a[i], b[i]
		if da.Triggered != db.Triggered || da.Evaluated != db.Evaluated ||
			da.Level != db.Level || da.Fill != db.Fill {
			return i, false
		}
		if exact && (math.Float64bits(da.SampleMean) != math.Float64bits(db.SampleMean) ||
			math.Float64bits(da.Target) != math.Float64bits(db.Target)) {
			return i, false
		}
	}
	if len(a) != len(b) {
		return n, false
	}
	return -1, true
}

// FirstTrigger returns the index of the first triggering decision, or
// -1 when the stream never triggers.
func FirstTrigger(ds []core.Decision) int {
	for i, d := range ds {
		if d.Triggered {
			return i
		}
	}
	return -1
}
