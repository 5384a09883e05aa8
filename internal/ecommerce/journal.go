package ecommerce

import (
	"rejuv/internal/core"
	"rejuv/internal/journal"
)

// Journal attaches a flight-recorder writer to the model. Every
// detector observation (one per completed transaction), every
// evaluated detector decision, every rejuvenation and detector reset,
// and every full-GC stall is journaled with its virtual timestamp.
// Call it before Run; pass nil to detach. The caller owns replication
// framing: write a journal.Writer.RepStart record before Run when the
// journal spans multiple replications.
//
// Kernel-level event records (scheduled/fired/cancelled) are far more
// voluminous and stay off unless requested via JournalKernel.
func (m *Model) Journal(jw *journal.Writer) {
	m.jw = jw
	m.st.jw = jw
}

// JournalKernel additionally records every DES kernel event
// (scheduled, fired, cancelled) into the same journal. A 100k
// transaction replication emits several hundred thousand kernel
// records, so this is a separate opt-in on top of Journal.
func (m *Model) JournalKernel(jw *journal.Writer) { m.sim.Journal(jw) }

// journalDecision writes the decision record for one evaluated (or
// triggering) detector decision. The model layer has no trigger
// cooldown — every trigger rejuvenates — so the suppressed flag is
// always false here; only the Monitor layer suppresses.
func (m *Model) journalDecision(d core.Decision) {
	if m.jw == nil || (!d.Evaluated && !d.Triggered) {
		return
	}
	var in core.Internals
	if instr, ok := m.detector.(core.Instrumented); ok {
		in = instr.Internals()
	}
	m.jw.Decision(m.sim.Now(), 0, d, in, false, 0)
}
