package conformance

import (
	"testing"

	"rejuv/internal/core"
	"rejuv/internal/faults"
	"rejuv/internal/xrand"
)

// Shift-conformance laws: behavioural guarantees of the adaptive-
// baseline layer (core.Rebase) under non-stationary workloads, run for
// every detector family. The laws are exact, seed-pinned claims — no
// Alpha() draws, so they never touch the statistical test budget — and
// every run is journaled with its rebaseline events and replay-verified
// through RunJournaled, so each law doubles as a flight-recorder proof
// that rebaselined runs are reconstructible bit for bit.

// shiftLawConfig is the pinned shift layer the laws run: the documented
// defaults.
var shiftLawConfig = core.ShiftConfig{}

// countTriggers counts triggering decisions in a stream.
func countTriggers(ds []core.Decision) int {
	n := 0
	for _, d := range ds {
		if d.Triggered {
			n++
		}
	}
	return n
}

// triggersIn counts triggering decisions with index in [lo, hi).
func triggersIn(ds []core.Decision, lo, hi int) int {
	n := 0
	for i, d := range ds {
		if i >= lo && i < hi && d.Triggered {
			n++
		}
	}
	return n
}

// TestShiftLawPureShiftFalseTriggers: across an abrupt pure workload
// shift (+4 sigma step, healthy afterwards), a Rebase-wrapped family
// must rebaseline and raise at most a transient burst of false triggers
// — the few observations a detector more sensitive than the shift
// threshold can win the race — while the bare family, which cannot tell
// the shift from degradation, keeps condemning the healthy system (the
// vacuity guard).
func TestShiftLawPureShiftFalseTriggers(t *testing.T) {
	for _, fam := range Families(lawBase) {
		t.Run(fam.Name, func(t *testing.T) {
			for _, seed := range lawSeeds() {
				trace := StepTrace(seed, 900, 200, 4, lawBase)
				bare, rep, err := RunJournaled(fam.Name, fam.New, trace)
				if err != nil {
					t.Fatal(err)
				}
				mustIdentical(t, fam.Name, rep)
				bareTrigs := countTriggers(bare)
				// The adaptive family is the self-adapting control: it
				// relearns its own baseline after each rejuvenation, so the
				// bare run absorbs the shift on its own and the vacuity and
				// improvement guards do not apply.
				if fam.Name != "Adaptive" && bareTrigs == 0 {
					t.Fatalf("seed %d: bare family never triggered on the shift; law is vacuous", seed)
				}
				wrapped := RebasedFamily(fam, shiftLawConfig, lawBase)
				ds, rep, err := RunJournaled(fam.Name, wrapped.New, trace)
				if err != nil {
					t.Fatal(err)
				}
				mustIdentical(t, fam.Name, rep)
				if rep.Rebaselines == 0 {
					t.Fatalf("seed %d: shift layer never rebaselined across the step", seed)
				}
				trigs := countTriggers(ds)
				if trigs > 3 {
					t.Errorf("seed %d: %d false triggers across a pure shift, want at most 3", seed, trigs)
				}
				if fam.Name != "Adaptive" && trigs >= bareTrigs {
					t.Errorf("seed %d: rebased family triggered %d times, bare %d; no improvement", seed, trigs, bareTrigs)
				}
			}
		})
	}
}

// TestShiftLawAgingDetectedThroughShift: when software aging starts
// after a workload shift, the rebaselined detector must still condemn
// the system — rebaselining may cost detection delay, but it is
// bounded, and the aging must not be absorbed as just another shift.
// The trace steps +3 sigma at 200 (a shift), then ramps from 400 (the
// aging hiding behind the new regime).
func TestShiftLawAgingDetectedThroughShift(t *testing.T) {
	const (
		shiftAt   = 200
		agingFrom = 400
		n         = 1200
	)
	for _, fam := range Families(lawBase) {
		t.Run(fam.Name, func(t *testing.T) {
			for _, seed := range lawSeeds() {
				trace := StepTrace(seed, n, shiftAt, 3, lawBase)
				for i := agingFrom; i < n; i++ {
					trace[i] += 0.02 * float64(i-agingFrom) * lawBase.StdDev
				}
				wrapped := RebasedFamily(fam, shiftLawConfig, lawBase)
				ds, rep, err := RunJournaled(fam.Name, wrapped.New, trace)
				if err != nil {
					t.Fatal(err)
				}
				mustIdentical(t, fam.Name, rep)
				if rep.Rebaselines == 0 {
					t.Fatalf("seed %d: the shift was never rebaselined", seed)
				}
				// After the shift settles (transient race + relearn window)
				// and before the aging begins, the system is healthy under
				// its new workload. The relearned baseline is an EWMA
				// estimate over a short window, so its spread runs slightly
				// tight and the occasional stray trigger is honest — but it
				// must stay rare.
				if k := triggersIn(ds, shiftAt+50, agingFrom); k > 2 {
					t.Errorf("seed %d: %d false triggers on the settled post-shift regime, want at most 2", seed, k)
				}
				// The aging ramp must be condemned with bounded slip.
				first := -1
				for i := agingFrom; i < len(ds); i++ {
					if ds[i].Triggered {
						first = i
						break
					}
				}
				if first < 0 {
					t.Fatalf("seed %d: aging behind the shift was never detected", seed)
				}
				if first > 1100 {
					t.Errorf("seed %d: detection slipped to observation %d, want at most 1100", seed, first)
				}
			}
		})
	}
}

// shiftShape is one non-stationary workload shape of the confusion
// matrix.
type shiftShape struct {
	name string
	// make builds the seed-pinned trace.
	make func(seed uint64) []float64
	// minRebaselines is the floor of committed rebaselines the shape
	// must provoke (the "shift" row of the confusion matrix).
	minRebaselines int
}

// shiftCell pins one cell of the rebaseline-versus-trigger confusion
// matrix: the bounds a family must satisfy on a shape.
type shiftCell struct {
	// budget bounds the rebased family's false triggers (the shape
	// misclassified as aging). Bucket-sampled families and the adaptive
	// control suppress the shift completely; per-observation families
	// chirp in the lag before each rebaseline commits, so their budgets
	// are looser — the pinned values are the empirical per-seed maxima
	// with headroom.
	budget int
	// minBare is the floor of bare-family triggers (the vacuity guard
	// that the shape is condemning-strength for this family). 0 marks
	// cells where the bare family already absorbs the shape (the
	// adaptive control, which relearns after every rejuvenation).
	minBare int
}

// shiftMatrix returns the pinned confusion-matrix expectations:
// shape -> family -> cell.
func shiftMatrix() map[string]map[string]shiftCell {
	return map[string]map[string]shiftCell{
		"diurnal": {
			"SRAA":     {budget: 1, minBare: 4},
			"SARAA":    {budget: 1, minBare: 4},
			"Static":   {budget: 1, minBare: 10},
			"CLTA":     {budget: 12, minBare: 40},
			"Shewhart": {budget: 4, minBare: 250},
			"EWMA":     {budget: 20, minBare: 200},
			"CUSUM":    {budget: 20, minBare: 200},
			"Adaptive": {budget: 1, minBare: 0},
		},
		"flash-crowd": {
			"SRAA":     {budget: 1, minBare: 1},
			"SARAA":    {budget: 1, minBare: 1},
			"Static":   {budget: 1, minBare: 6},
			"CLTA":     {budget: 18, minBare: 15},
			"Shewhart": {budget: 8, minBare: 120},
			"EWMA":     {budget: 10, minBare: 90},
			"CUSUM":    {budget: 12, minBare: 80},
			"Adaptive": {budget: 1, minBare: 1},
		},
		"ramp-plateau": {
			"SRAA":     {budget: 1, minBare: 4},
			"SARAA":    {budget: 1, minBare: 4},
			"Static":   {budget: 1, minBare: 15},
			"CLTA":     {budget: 28, minBare: 30},
			"Shewhart": {budget: 4, minBare: 250},
			"EWMA":     {budget: 15, minBare: 200},
			"CUSUM":    {budget: 38, minBare: 180},
			"Adaptive": {budget: 1, minBare: 5},
		},
	}
}

// TestShiftLawConfusionMatrix pins the rebaseline-versus-trigger
// confusion matrix across every detector family and three pure workload
// shapes: diurnal arrival cycles, a flash crowd, and a ramp to a
// plateau. Every cell must classify the movement as workload
// (rebaselines at or above the shape's floor, false triggers within the
// cell's budget) while the bare family misclassifies it as aging (at
// least the cell's trigger floor), and every run must replay
// byte-identically. The cell bounds are seed-pinned from the empirical
// matrix (see EXPERIMENTS.md) with headroom.
func TestShiftLawConfusionMatrix(t *testing.T) {
	shapes := []shiftShape{
		{
			name:           "diurnal",
			make:           func(seed uint64) []float64 { return DiurnalTrace(seed, 1200, 6, 150, lawBase) },
			minRebaselines: 2,
		},
		{
			name:           "flash-crowd",
			make:           func(seed uint64) []float64 { return FlashCrowdTrace(seed, 900, 200, 300, 5, lawBase) },
			minRebaselines: 2,
		},
		{
			name:           "ramp-plateau",
			make:           func(seed uint64) []float64 { return RampPlateauTrace(seed, 900, 200, 40, 5, lawBase) },
			minRebaselines: 1,
		},
	}
	matrix := shiftMatrix()
	for _, shape := range shapes {
		t.Run(shape.name, func(t *testing.T) {
			for _, fam := range Families(lawBase) {
				t.Run(fam.Name, func(t *testing.T) {
					cell, ok := matrix[shape.name][fam.Name]
					if !ok {
						t.Fatalf("no pinned cell for %s/%s", shape.name, fam.Name)
					}
					for _, seed := range lawSeeds() {
						trace := shape.make(seed)
						bare, rep, err := RunJournaled(fam.Name, fam.New, trace)
						if err != nil {
							t.Fatal(err)
						}
						mustIdentical(t, fam.Name, rep)
						bareTrigs := countTriggers(bare)
						wrapped := RebasedFamily(fam, shiftLawConfig, lawBase)
						ds, rep, err := RunJournaled(fam.Name, wrapped.New, trace)
						if err != nil {
							t.Fatal(err)
						}
						mustIdentical(t, fam.Name, rep)
						trigs := countTriggers(ds)
						t.Logf("seed %d: bare %d triggers; rebased %d triggers, %d rebaselines",
							seed, bareTrigs, trigs, rep.Rebaselines)
						if rep.Rebaselines < shape.minRebaselines {
							t.Errorf("seed %d: %d rebaselines, want at least %d", seed, rep.Rebaselines, shape.minRebaselines)
						}
						if trigs > cell.budget {
							t.Errorf("seed %d: %d triggers exceed the cell budget of %d", seed, trigs, cell.budget)
						}
						if bareTrigs < cell.minBare {
							t.Errorf("seed %d: bare family triggered %d times, want at least %d (cell vacuity)", seed, bareTrigs, cell.minBare)
						}
					}
				})
			}
		})
	}
}

// TestShiftFaultLawMatrix runs every fault class of internal/faults
// against every Rebase-wrapped family on a shifting workload behind the
// reject hygiene gate: the run must survive, internals stay finite, the
// rebaseline path must still commit, the false-trigger excess over the
// clean shifted run stays bounded, and the faulted journal — rebaseline
// records included — replays byte-identically.
func TestShiftFaultLawMatrix(t *testing.T) {
	for _, fam := range Families(lawBase) {
		t.Run(fam.Name, func(t *testing.T) {
			trace := StepTrace(faultLawSeed, 900, 200, 4, lawBase)
			wrapped := RebasedFamily(fam, shiftLawConfig, lawBase)
			clean, err := RunFaulted(fam.Name, wrapped.New, trace, faults.Spec{}, core.HygieneReject, faultLawSeed)
			if err != nil {
				t.Fatal(err)
			}
			if clean.Rebaselines == 0 {
				t.Fatal("clean shifted run never rebaselined; matrix is vacuous")
			}
			for _, sc := range FaultScenarios() {
				t.Run(sc.Name, func(t *testing.T) {
					spec := parseScenario(t, sc)
					res, err := RunFaulted(fam.Name, wrapped.New, trace, spec, core.HygieneReject, faultLawSeed)
					if err != nil {
						t.Fatal(err)
					}
					if res.Injected == 0 {
						t.Fatalf("injector never fired; law is vacuous")
					}
					if !res.Finite {
						t.Errorf("detector internals went non-finite")
					}
					if !res.Replay.Identical() {
						t.Errorf("faulted shifted journal replay diverged")
					}
					if res.Rebaselines == 0 {
						t.Errorf("fault class suppressed the rebaseline entirely")
					}
					// The excess allowance is wider than the steady-state
					// fault laws' (+2): duplication and reordering replay
					// the post-shift excursion during the race window
					// before the change-point commits, which honestly costs
					// a couple of extra transient triggers.
					if res.Triggers > clean.Triggers+4 {
						t.Errorf("false triggers = %d, clean shifted = %d; fault class amplified false alarms",
							res.Triggers, clean.Triggers)
					}
				})
			}
		})
	}
}

// alternatingTrace flips the mean between base.Mean and base.Mean+4σ
// every period observations, with ±1 uniform jitter: a workload that
// keeps moving between two tight regimes, so every relearned baseline
// is narrow.
func alternatingTrace(seed uint64, n, period int, base core.Baseline) []float64 {
	r := xrand.NewStream(seed, traceStream)
	xs := make([]float64, n)
	for i := range xs {
		mean := base.Mean
		if (i/period)%2 == 1 {
			mean += 4 * base.StdDev
		}
		xs[i] = mean + 2*r.Float64() - 1
	}
	return xs
}

// TestShiftLawAlternatingRegimesKeepRebaselining: on a workload that
// alternates between two regimes to the end of the trace, a
// Rebase-wrapped family must keep committing rebaselines to the end:
// its last rebaseline falls within the last three regimes. An aging
// classification latches the change-point layer until the wrapped
// detector triggers; a downward change must release it too, or a
// family that never fires at the current baseline stays latched for
// the rest of the run and stops tracking the workload.
//
// The adaptive control keeps a small budget of stuck seeds. When the
// run-length rule misreads an upward regime change as aging (the
// upper statistic had stayed positive for more than MaxShiftRun
// observations before the jump), the latch is set with the baseline
// at the lower regime, so no downward crossing follows; every other
// family then fires at the upper regime and releases the latch, but
// the adaptive family judges against a baseline it learned over a
// warmup that straddled the jump and never fires.
func TestShiftLawAlternatingRegimesKeepRebaselining(t *testing.T) {
	const (
		n      = 4800
		period = 200
	)
	seeds := uint64(200)
	if testing.Short() {
		seeds = 40
	}
	for _, fam := range Families(lawBase) {
		t.Run(fam.Name, func(t *testing.T) {
			budget := 0
			if fam.Name == "Adaptive" {
				budget = int(seeds / 20)
			}
			var stuck []uint64
			for seed := uint64(1); seed <= seeds; seed++ {
				det, err := RebasedFamily(fam, shiftLawConfig, lawBase).New()
				if err != nil {
					t.Fatal(err)
				}
				reb := det.(core.Rebaseliner)
				last, seen := -1, uint64(0)
				for i, x := range alternatingTrace(seed, n, period, lawBase) {
					if det.Observe(x).Triggered {
						det.Reset()
					}
					if k := reb.Rebaselines(); k != seen {
						last, seen = i, k
					}
				}
				if last < n-3*period {
					stuck = append(stuck, seed)
					t.Logf("seed %d: last rebaseline at observation %d of %d (%d in all)", seed, last, n, seen)
				}
			}
			if len(stuck) > budget {
				t.Errorf("%d of %d seeds stopped rebaselining before the last three regimes, want at most %d: %v",
					len(stuck), seeds, budget, stuck)
			}
		})
	}
	// Every run of the law replays byte-identically through the journal.
	for _, fam := range Families(lawBase) {
		_, rep, err := RunJournaled(fam.Name, RebasedFamily(fam, shiftLawConfig, lawBase).New, alternatingTrace(1, n, period, lawBase))
		if err != nil {
			t.Fatal(err)
		}
		mustIdentical(t, fam.Name, rep)
	}
}
