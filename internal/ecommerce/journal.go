package ecommerce

import "rejuv/internal/journal"

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
