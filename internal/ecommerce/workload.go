package ecommerce

import (
	"fmt"
	"math"
)

// Non-stationary workload shapes: a deterministic piecewise-constant
// profile multiplying the arrival rate over virtual time. Where the
// on-off burst overlay models stochastic arrival bursts the bucket
// design must absorb, a workload shape models legitimate, sustained
// workload movement — diurnal cycles, flash crowds, ramps to a new
// plateau — the regimes the adaptive-baseline layer (core.Rebase) must
// rebaseline through rather than condemn. Phase boundaries resample the
// pending inter-arrival time at the new rate, which by memorylessness
// simulates the piecewise-homogeneous Poisson process exactly.

// WorkloadPhase is one segment of a workload profile.
type WorkloadPhase struct {
	// Duration is the phase length in seconds of virtual time.
	Duration float64
	// Factor multiplies Config.ArrivalRate while the phase is active.
	Factor float64
}

// WorkloadShape is a piecewise-constant arrival-rate profile.
type WorkloadShape struct {
	// Phases run in order from the start of the replication.
	Phases []WorkloadPhase
	// Cycle repeats the profile indefinitely (diurnal cycles). When
	// false, the last phase's factor holds for the rest of the run
	// (flash crowds that dispersed, ramps that reached their plateau).
	Cycle bool
}

// Validate reports whether the shape is usable.
func (w *WorkloadShape) Validate() error {
	if len(w.Phases) == 0 {
		return fmt.Errorf("ecommerce: workload shape needs at least one phase")
	}
	for i, ph := range w.Phases {
		if !(ph.Duration > 0) || math.IsInf(ph.Duration, 0) {
			return fmt.Errorf("ecommerce: workload phase %d duration %v must be positive and finite", i, ph.Duration)
		}
		if !(ph.Factor > 0) || math.IsInf(ph.Factor, 0) {
			return fmt.Errorf("ecommerce: workload phase %d factor %v must be positive and finite", i, ph.Factor)
		}
	}
	return nil
}

// DiurnalWorkload returns a cycling raised-cosine profile: the arrival
// rate swings between ArrivalRate and peak*ArrivalRate once per period
// seconds, discretized into steps equal-length phases — the day/night
// arrival cycle.
func DiurnalWorkload(period, peak float64, steps int) *WorkloadShape {
	if steps < 2 {
		steps = 2
	}
	ph := make([]WorkloadPhase, steps)
	for i := range ph {
		lift := (peak - 1) * (1 - math.Cos(2*math.Pi*(float64(i)+0.5)/float64(steps))) / 2
		ph[i] = WorkloadPhase{Duration: period / float64(steps), Factor: 1 + lift}
	}
	return &WorkloadShape{Phases: ph, Cycle: true}
}

// FlashCrowdWorkload returns a one-shot surge profile: quiet seconds at
// the base rate, dur seconds at factor times the base rate, then the
// base rate for the rest of the run.
func FlashCrowdWorkload(quiet, dur, factor float64) *WorkloadShape {
	return &WorkloadShape{Phases: []WorkloadPhase{
		{Duration: quiet, Factor: 1},
		{Duration: dur, Factor: factor},
		{Duration: quiet, Factor: 1},
	}}
}

// RampPlateauWorkload returns a ramp-then-plateau profile: quiet
// seconds at the base rate, then a linear climb to factor times the
// base rate over ramp seconds (discretized into steps phases), holding
// the plateau for the rest of the run.
func RampPlateauWorkload(quiet, ramp float64, steps int, factor float64) *WorkloadShape {
	if steps < 1 {
		steps = 1
	}
	ph := make([]WorkloadPhase, 0, steps+1)
	ph = append(ph, WorkloadPhase{Duration: quiet, Factor: 1})
	for i := 1; i <= steps; i++ {
		ph = append(ph, WorkloadPhase{
			Duration: ramp / float64(steps),
			Factor:   1 + (factor-1)*float64(i)/float64(steps),
		})
	}
	return &WorkloadShape{Phases: ph}
}

// applyWorkloadPhase enters phase m.wlIdx: it sets the rate factor,
// resamples the pending inter-arrival time at the new rate (exact by
// memorylessness, as with the burst overlay), and schedules the phase
// boundary.
func (m *Model) applyWorkloadPhase() {
	ph := m.cfg.Workload.Phases[m.wlIdx]
	m.wlFactor = ph.Factor
	m.resampleArrival()
	m.sim.Schedule(ph.Duration, evWorkloadPhase, 0)
}

// nextWorkloadPhase handles a phase boundary: it enters the next phase,
// wrapping around for a cycling shape. A non-cycling shape holds its
// last phase's factor for the rest of the run.
func (m *Model) nextWorkloadPhase() {
	m.wlIdx++
	if m.wlIdx >= len(m.cfg.Workload.Phases) {
		if !m.cfg.Workload.Cycle {
			return
		}
		m.wlIdx = 0
	}
	m.applyWorkloadPhase()
}
