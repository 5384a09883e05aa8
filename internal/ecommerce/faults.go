package ecommerce

import "rejuv/internal/faults"

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
			m.jw.Injected(m.sim.Now(), string(class), value)
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
