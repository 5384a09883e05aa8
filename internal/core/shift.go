package core

import (
	"fmt"
	"math"

	"rejuv/internal/num"
)

// This file is the workload-shift decision layer: online baseline
// re-estimation (Moments) plus change-point detection (CUSUMChange,
// PageHinkleyChange) plus the rule that distinguishes "the workload
// shifted" — rebaseline and resume — from "the software aged" — let the
// wrapped detector trigger as today. The state machine is a plain value
// (ShiftState) with one shared transition (Step), used verbatim by both
// the pointer-based Rebase wrapper (rebase.go) and the fleet engine's
// drain loop, just as both run the detector kernel (kernel.go). On a
// committed rebaseline both restart their detector in place: the fleet
// resets a stream's State and passes its re-estimated Base to
// Plan.Decide, and Rebase restarts its inner detector at that Base.
//
// The decision rule: the change-point statistic watches standardized
// residuals z = (x - µ)/σ against the committed baseline. When it
// crosses its threshold, the run length of the crossing side — how many
// consecutive observations the statistic needed to climb — classifies
// the change. An abrupt workload shift (a flash crowd arriving, a
// diurnal transition) drives z far from zero and crosses in a few
// observations; slow software aging drifts z upward a little per
// observation and needs a long climb. Runs at or below MaxShiftRun are
// shifts: the moment tracker restarts, a relearn window runs (the
// wrapped detector is paused so a half-filled sample of mixed regimes
// never completes), and the re-estimated (µ, σ) is committed as the new
// baseline. Longer upward runs are aging and are left to the wrapped
// detector. Downward changes always rebaseline: aging only ever makes
// response times worse, so a metric that moved down is a workload
// change by elimination.
//
// An aging classification latches: once the metric has drifted well
// above baseline, any further upward crossing would have a short run
// (the statistic re-accumulates from an already-elevated z) and would
// masquerade as a shift, so while latched an upward crossing only
// restarts the statistic. The latch releases when the wrapped detector
// triggers — rejuvenation restores the system to baseline
// (NoteTrigger) — or on a downward crossing, which is a workload change
// like any other: it takes the shift path, so a baseline never stops
// tracking a workload that moves down.

// ShiftDetector selects the change-point statistic of the shift layer.
type ShiftDetector int

// Change-point statistics for ShiftConfig.Detector.
const (
	// ShiftCUSUM is the two-sided cumulative-sum statistic (the default).
	ShiftCUSUM ShiftDetector = iota
	// ShiftPageHinkley is the two-sided Page–Hinkley statistic.
	ShiftPageHinkley
)

// String returns the detector's spec spelling.
func (d ShiftDetector) String() string {
	switch d {
	case ShiftCUSUM:
		return "cusum"
	case ShiftPageHinkley:
		return "page-hinkley"
	}
	return fmt.Sprintf("ShiftDetector(%d)", int(d))
}

// ShiftConfig tunes the workload-shift layer. The zero value selects
// the defaults below, so opting in never requires picking constants.
type ShiftConfig struct {
	// Detector selects the change-point statistic. Default ShiftCUSUM.
	Detector ShiftDetector
	// Alpha is the smoothing factor of the EWMA moment tracker, in
	// (0, 1]. 0 means 0.05 (an effective window of ~40 observations).
	Alpha float64
	// Slack is the per-observation drift allowance of the change-point
	// statistic, in σ units (the CUSUM slack, the Page–Hinkley delta).
	// 0 means 0.5. Negative is invalid; use math.SmallestNonzeroFloat64
	// for an effectively zero slack.
	Slack float64
	// Threshold is the change-point detection threshold, in σ units.
	// 0 means 8.
	Threshold float64
	// MaxShiftRun is the run-length boundary of the decision rule: an
	// upward change detected with a run of at most this many
	// observations is a workload shift; a longer run is software aging.
	// 0 means 20.
	MaxShiftRun int
	// Relearn is how many observations the moment tracker relearns over
	// after a shift before the new baseline is committed. The wrapped
	// detector is paused while it runs. 0 means 32; at least 2 so a
	// standard deviation exists.
	Relearn int
}

// WithDefaults returns the config with zero fields replaced by the
// documented defaults.
func (c ShiftConfig) WithDefaults() ShiftConfig {
	if num.Zero(c.Alpha) {
		c.Alpha = 0.05
	}
	if num.Zero(c.Slack) {
		c.Slack = 0.5
	}
	if num.Zero(c.Threshold) {
		c.Threshold = 8
	}
	if c.MaxShiftRun == 0 {
		c.MaxShiftRun = 20
	}
	if c.Relearn == 0 {
		c.Relearn = 32
	}
	return c
}

// Validate reports whether the (defaults-applied) config is usable.
func (c ShiftConfig) Validate() error {
	if c.Detector != ShiftCUSUM && c.Detector != ShiftPageHinkley {
		return fmt.Errorf("core: unknown shift detector %d", int(c.Detector))
	}
	if !(c.Alpha > 0 && c.Alpha <= 1) {
		return fmt.Errorf("core: shift alpha %v must be in (0, 1]", c.Alpha)
	}
	if c.Slack < 0 || math.IsNaN(c.Slack) || math.IsInf(c.Slack, 0) {
		return fmt.Errorf("core: shift slack %v must be non-negative and finite", c.Slack)
	}
	if !(c.Threshold > 0) || math.IsInf(c.Threshold, 0) {
		return fmt.Errorf("core: shift threshold %v must be positive and finite", c.Threshold)
	}
	if c.MaxShiftRun < 1 {
		return fmt.Errorf("core: shift max run %d must be at least 1", c.MaxShiftRun)
	}
	if c.Relearn < 2 {
		return fmt.Errorf("core: shift relearn window %d must be at least 2 observations", c.Relearn)
	}
	return nil
}

// ShiftOutcome is the per-observation verdict of the shift layer.
type ShiftOutcome int

// Shift layer verdicts.
const (
	// ShiftNone: no change detected; the observation goes to the
	// wrapped detector as usual.
	ShiftNone ShiftOutcome = iota
	// ShiftRelearning: a shift was detected and the baseline is being
	// re-estimated; the wrapped detector is paused for this observation.
	ShiftRelearning
	// ShiftRebaselined: the relearn window just completed and the
	// re-estimated baseline was committed; the wrapped detector must
	// restart at it before the next observation.
	ShiftRebaselined
	// ShiftAging: the change-point statistic fired but the run length
	// classified the change as software aging; the observation goes to
	// the wrapped detector, which triggers as today. The classification
	// latches until the wrapped detector triggers (NoteTrigger) or a
	// downward change is detected, so it is returned once per aging
	// episode; subsequent observations of the episode report ShiftNone.
	ShiftAging
)

// String returns the outcome's journal spelling.
func (o ShiftOutcome) String() string {
	switch o {
	case ShiftNone:
		return "none"
	case ShiftRelearning:
		return "relearning"
	case ShiftRebaselined:
		return "rebaselined"
	case ShiftAging:
		return "aging"
	}
	return fmt.Sprintf("ShiftOutcome(%d)", int(o))
}

// ShiftState is the per-stream state of the workload-shift layer: the
// committed baseline, the moment tracker and the change-point
// statistics. It is a plain value so the fleet engine can store one per
// stream slot; all behaviour lives in Step, which
// the Rebase wrapper shares verbatim.
type ShiftState struct {
	// Base is the committed baseline the wrapped detector currently runs
	// against.
	Base Baseline
	// Mom tracks the exponentially weighted moments of the relearn
	// window; it is restarted when a shift is detected and folds only
	// while RelearnLeft > 0.
	Mom Moments
	// CP and PH are the change-point statistics; only the one selected
	// by ShiftConfig.Detector advances.
	CP CUSUMChange
	PH PageHinkleyChange
	// RelearnLeft counts observations remaining in the relearn window;
	// 0 means no relearn is in progress.
	RelearnLeft int32
	// Aging latches an aging classification until the wrapped detector
	// triggers or the metric moves down; while set, an upward crossing
	// only restarts the change-point statistic.
	Aging bool
	// Rebaselines counts committed rebaselines.
	Rebaselines uint64
}

// NewShiftState returns the shift state anchored at the given baseline.
func NewShiftState(base Baseline) ShiftState {
	return ShiftState{Base: base}
}

// Step folds one admitted observation and returns the verdict. cfg must
// have defaults applied (WithDefaults) and be the same on every call.
// It is on the fleet's per-observation path and must stay
// allocation-free.
//
//lint:hotpath
func (s *ShiftState) Step(cfg ShiftConfig, x float64) ShiftOutcome {
	if s.RelearnLeft > 0 {
		s.Mom.Observe(cfg.Alpha, x)
		s.RelearnLeft--
		if s.RelearnLeft > 0 {
			return ShiftRelearning
		}
		mean, sd := s.Mom.Mean(), s.Mom.StdDev()
		// A degenerate relearn (constant window, non-finite poison under
		// HygieneOff) must never commit an unusable baseline: keep the
		// old spread, and the old center if even the mean is poisoned.
		if math.IsNaN(mean) || math.IsInf(mean, 0) {
			mean = s.Base.Mean
		}
		if !(sd > 0) || math.IsInf(sd, 0) {
			sd = s.Base.StdDev
		}
		s.Base = Baseline{Mean: mean, StdDev: sd}
		s.CP.Reset()
		s.PH.Reset()
		s.Rebaselines++
		return ShiftRebaselined
	}
	z := (x - s.Base.Mean) / s.Base.StdDev
	var detected, up bool
	var run int
	switch cfg.Detector {
	case ShiftPageHinkley:
		detected, up = s.PH.Step(z, cfg.Slack, cfg.Threshold)
		run = s.PH.Run(up)
	default:
		detected, up = s.CP.Step(z, cfg.Slack, cfg.Threshold)
		run = s.CP.Run(up)
	}
	if !detected {
		return ShiftNone
	}
	if up && (s.Aging || run > cfg.MaxShiftRun) {
		// A long upward climb is slow drift: software aging. Latch, and
		// let the wrapped detector condemn the system as today. While
		// latched the metric sits far above baseline, so any upward
		// crossing has a short run and would read as a shift: restart
		// the statistic and stay latched.
		s.CP.Reset()
		s.PH.Reset()
		if s.Aging {
			return ShiftNone
		}
		s.Aging = true
		return ShiftAging
	}
	// An abrupt change (or any downward one, which also releases the
	// aging latch) is a workload shift: restart the moment tracker on
	// the post-shift regime — seeded with the current observation — and
	// relearn before committing.
	s.Aging = false
	s.Mom.Reset()
	s.Mom.Observe(cfg.Alpha, x)
	s.CP.Reset()
	s.PH.Reset()
	s.RelearnLeft = int32(cfg.Relearn)
	return ShiftRelearning
}

// NoteTrigger tells the shift layer the wrapped detector triggered:
// rejuvenation is about to restore the system to baseline, so the aging
// latch releases. The moment tracker needs no restart: it folds only
// inside a relearn window, which a detected shift starts afresh, and
// the wrapped detector is paused while one runs, so it never triggers
// inside one. The change-point statistics deliberately
// keep their accumulation: if the trigger condemned genuine aging,
// rejuvenation returns z to zero and they decay on their own; if the
// wrapped detector out-raced the change-point layer on a workload shift
// (a detector more sensitive than the shift threshold fires first),
// z stays elevated, the statistic keeps climbing across the trigger,
// and the shift is still classified instead of being reset into an
// endless false-trigger loop. Both the Rebase wrapper and the fleet
// drain loop call this on every triggering decision, keeping the two
// implementations bit-identical.
//
//lint:hotpath
func (s *ShiftState) NoteTrigger() {
	s.Aging = false
}
