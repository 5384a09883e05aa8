package ecommerce

import (
	"math"

	"rejuv/internal/core"
	"rejuv/internal/faults"
)

// This file wires the deterministic fault-injection layer into the
// simulation: the injector sits between the completed-transaction
// response times and the detector, corrupting and reshaping the
// observation stream exactly as a broken telemetry pipeline would,
// while the hygiene policy guards the detector just as the production
// Monitor does. Both are seed-pinned, so faulted replications replay
// byte-identically.

// faultStreamBase offsets the injector's xrand stream from the model's
// own, so injecting faults never perturbs arrivals or service times:
// the same transactions flow, only the detector's view of them changes.
const faultStreamBase = 9000

// InjectFaults attaches a deterministic fault injector built from the
// stream clauses of spec, drawing from xrand stream (Seed,
// faultStreamBase+Stream). Call before Run; later calls replace the
// injector. Actuator and clock clauses are ignored here — the
// simulation maps slow-act onto Config.RejuvenationPause at the CLI
// layer, and the DES clock cannot skew.
//
// Every injected fault is counted in Result.Injected and journaled as
// a fault record when a journal is attached.
func (m *Model) InjectFaults(spec faults.Spec) {
	inj := faults.NewInjector(spec, m.cfg.Seed, faultStreamBase+m.cfg.Stream)
	if !inj.Active() {
		m.inj = nil
		return
	}
	inj.OnFault = func(class faults.Class, value float64) {
		m.res.Injected++
		if m.jw != nil {
			m.jw.Fault(m.sim.Now(), string(class), sanitizeValue(value))
		}
	}
	m.inj = inj
}

// FaultCounts returns the per-clause injection counts of the attached
// injector, nil when none is attached.
func (m *Model) FaultCounts() []faults.Count {
	if m.inj == nil {
		return nil
	}
	return m.inj.Counts()
}

// sanitizeValue makes a fault value journal-safe: the JSONL codec
// cannot carry non-finite floats, and the fault class already names the
// poison.
func sanitizeValue(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// feedDetector routes one (possibly fault-injected) observation through
// the hygiene policy into the detector, mirroring the production
// Monitor: intercepted values are counted and journaled as faults but
// never reach the detector, so the journal's replayed decision stream
// stays byte-identical.
func (m *Model) feedDetector(x float64) {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		v, ok := m.cfg.Hygiene.Admit(x, m.lastAdmitted, m.haveAdmitted)
		if m.cfg.Hygiene != core.HygieneOff {
			m.res.Rejected++
			if m.jw != nil {
				m.jw.Fault(m.sim.Now(), hygieneClass(x), 0)
			}
		}
		if !ok {
			return
		}
		x = v
	}
	m.lastAdmitted, m.haveAdmitted = x, true
	if m.jw != nil {
		m.jw.Observe(m.sim.Now(), 0, x)
	}
	d := m.detector.Observe(x)
	if m.reb != nil {
		if n := m.reb.Rebaselines(); n != m.lastReb {
			m.lastReb = n
			m.res.Rebaselines++
			if m.jw != nil {
				b := m.reb.CurrentBaseline()
				m.jw.Rebaseline(m.sim.Now(), 0, b.Mean, b.StdDev)
			}
		}
	}
	m.journalDecision(d)
	m.publishDetector()
	if d.Triggered {
		m.rejuvenate()
	}
}

// hygieneClass names the fault class of a non-finite observation.
func hygieneClass(x float64) string {
	switch {
	case math.IsNaN(x):
		return "nan"
	case math.IsInf(x, 1):
		return "+inf"
	default:
		return "-inf"
	}
}
