// Package experiment defines and runs the paper's evaluation: load
// sweeps of the e-commerce model under each rejuvenation algorithm, with
// the replication scheme of Section 5 (five replications of 100,000
// transactions per point), and renders the results as tables, CSV, and
// charts.
package experiment

import (
	"fmt"

	"rejuv/internal/core"
)

// Algorithm identifies a detector family.
type Algorithm string

// Detector families available to sweeps. None is the implicit
// no-rejuvenation baseline; Shewhart, EWMA and CUSUM are the classical
// comparators used in ablation experiments.
const (
	None     Algorithm = "none"
	SRAA     Algorithm = "SRAA"
	SARAA    Algorithm = "SARAA"
	CLTA     Algorithm = "CLTA"
	Shewhart Algorithm = "Shewhart"
	EWMA     Algorithm = "EWMA"
	CUSUM    Algorithm = "CUSUM"
)

// Spec is a fully parameterized detector configuration for a sweep
// series. The (N, K, D) triple follows the paper's notation: sample
// size, number of buckets, bucket depth.
type Spec struct {
	Algorithm Algorithm
	N         int     // sample size (n, or n_orig for SARAA)
	K         int     // number of buckets
	D         int     // bucket depth
	Quantile  float64 // CLTA: normal quantile; Shewhart/EWMA: limit; CUSUM: threshold
	Weight    float64 // EWMA smoothing weight; CUSUM slack
	Baseline  core.Baseline
	// Shift, when non-nil, wraps the detector in the workload-shift
	// rebaselining layer (core.Rebase) with this change-point
	// configuration: workload shifts re-anchor the baseline, software
	// aging still triggers. It serializes with the spec, so journals of
	// shift-aware runs replay through the same wrapper.
	Shift *core.ShiftConfig `json:",omitempty"`
}

// PaperBaseline is the SLA constant of every simulation experiment in
// the paper: mean and standard deviation both 5 seconds.
var PaperBaseline = core.Baseline{Mean: 5, StdDev: 5}

// Label returns the figure-legend label for the spec, matching the
// paper's "(n=2, K=5, D=3)" style. Shift-aware specs carry a "+shift"
// suffix.
func (s Spec) Label() string {
	if s.Shift != nil && s.Algorithm != None {
		return s.withoutShift().Label() + " +shift"
	}
	switch s.Algorithm {
	case None:
		return "no rejuvenation"
	case CLTA:
		return fmt.Sprintf("CLTA (n=%d, N=%.4g)", s.N, s.Quantile)
	case Shewhart:
		return fmt.Sprintf("Shewhart (L=%.4g)", s.Quantile)
	case EWMA:
		return fmt.Sprintf("EWMA (w=%.4g, L=%.4g)", s.Weight, s.Quantile)
	case CUSUM:
		return fmt.Sprintf("CUSUM (k=%.4g, h=%.4g)", s.Weight, s.Quantile)
	default:
		return fmt.Sprintf("%s (n=%d, K=%d, D=%d)", s.Algorithm, s.N, s.K, s.D)
	}
}

// withoutShift returns the spec with the shift layer stripped.
func (s Spec) withoutShift() Spec {
	s.Shift = nil
	return s
}

// NewDetector builds the configured detector, or nil for the
// no-rejuvenation baseline. Specs with a Shift layer build the bare
// detector wrapped in core.Rebase: committed rebaselines restart it in
// place at the re-estimated baseline.
func (s Spec) NewDetector() (core.Detector, error) {
	base := s.Baseline
	if base == (core.Baseline{}) {
		base = PaperBaseline
	}
	if s.Shift != nil && s.Algorithm != None {
		inner := s.withoutShift()
		return core.NewRebase(*s.Shift, base, func(b core.Baseline) (core.Detector, error) {
			inner.Baseline = b
			return inner.NewDetector()
		})
	}
	switch s.Algorithm {
	case None:
		return nil, nil
	case SRAA:
		return core.NewSRAA(core.SRAAConfig{
			SampleSize: s.N, Buckets: s.K, Depth: s.D, Baseline: base,
		})
	case SARAA:
		return core.NewSARAA(core.SARAAConfig{
			InitialSampleSize: s.N, Buckets: s.K, Depth: s.D, Baseline: base,
		})
	case CLTA:
		return core.NewCLTA(core.CLTAConfig{
			SampleSize: s.N, Quantile: s.Quantile, Baseline: base,
		})
	case Shewhart:
		return core.NewShewhart(s.Quantile, base)
	case EWMA:
		return core.NewEWMA(s.Weight, s.Quantile, base)
	case CUSUM:
		return core.NewCUSUM(s.Weight, s.Quantile, base)
	default:
		return nil, fmt.Errorf("experiment: unknown algorithm %q", s.Algorithm)
	}
}

// sraaSpec abbreviates an SRAA spec with the paper baseline.
func sraaSpec(n, k, d int) Spec {
	return Spec{Algorithm: SRAA, N: n, K: k, D: d}
}

// saraaSpec abbreviates a SARAA spec with the paper baseline.
func saraaSpec(n, k, d int) Spec {
	return Spec{Algorithm: SARAA, N: n, K: k, D: d}
}
