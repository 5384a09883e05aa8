package rejuv

import (
	"io"

	"rejuv/internal/journal"
)

// This file is the flight-recorder surface of the package: re-exports
// of the internal/journal codec plus the replay verifier, so
// applications can journal a production Monitor and later replay the
// observation stream through a fresh detector to verify (or debug) the
// decisions it made. See doc.go, "Observability".

// JournalMeta is the self-describing header written at the start of
// every journal: who recorded it, which detector configuration, which
// seed.
type JournalMeta = journal.Meta

// JournalRecord is one decoded journal record. Which fields are
// meaningful depends on the record kind.
type JournalRecord = journal.Record

// JournalKind identifies the type of a journal record.
type JournalKind = journal.Kind

// JournalFormat selects the journal encoding.
type JournalFormat = journal.Format

// Journal record kinds, for interpreting decoded JournalRecords.
const (
	JournalKindRepStart     = journal.KindRepStart
	JournalKindObserve      = journal.KindObserve
	JournalKindDecision     = journal.KindDecision
	JournalKindReset        = journal.KindReset
	JournalKindRejuvenation = journal.KindRejuvenation
	JournalKindGCStart      = journal.KindGCStart
	JournalKindGCEnd        = journal.KindGCEnd
	JournalKindSimScheduled = journal.KindSimScheduled
	JournalKindSimFired     = journal.KindSimFired
	JournalKindSimCancelled = journal.KindSimCancelled
	JournalKindFault        = journal.KindFault
	JournalKindActStart     = journal.KindActStart
	JournalKindActAttempt   = journal.KindActAttempt
	JournalKindActGiveUp    = journal.KindActGiveUp
)

// Scheduling record kinds, written by a Scheduler (or a journaled
// cluster simulation) and replayed with ReplaySchedJournal.
const (
	JournalKindSchedEnqueue    = journal.KindSchedEnqueue
	JournalKindSchedDefer      = journal.KindSchedDefer
	JournalKindSchedCoalesce   = journal.KindSchedCoalesce
	JournalKindSchedStart      = journal.KindSchedStart
	JournalKindSchedComplete   = journal.KindSchedComplete
	JournalKindSchedQuarantine = journal.KindSchedQuarantine
	JournalKindSchedReadmit    = journal.KindSchedReadmit
)

// Journal encodings: the compact length-prefixed binary codec and the
// JSON-lines debug codec (one object per line, jq-friendly).
const (
	JournalBinary = journal.FormatBinary
	JournalJSONL  = journal.FormatJSONL
)

// JournalWriter appends records to a journal. Attach one via
// MonitorConfig.Journal and the monitor records every observation and
// every evaluated detector decision with timestamps relative to the
// first observation. The binary encode path does not allocate.
type JournalWriter = journal.Writer

// NewJournalWriter returns a writer emitting the binary codec to w,
// writing the header immediately. Wrap w in a bufio.Writer when it is
// a file; the journal issues one small Write per record.
func NewJournalWriter(w io.Writer, meta JournalMeta) *JournalWriter {
	return journal.NewWriter(w, meta)
}

// NewJournalJSONWriter returns a writer emitting the JSON-lines debug
// codec to w.
func NewJournalJSONWriter(w io.Writer, meta JournalMeta) *JournalWriter {
	return journal.NewJSONWriter(w, meta)
}

// JournalReader decodes a journal, auto-detecting the codec.
type JournalReader = journal.Reader

// NewJournalReader returns a reader for r, consuming the header.
func NewJournalReader(r io.Reader) (*JournalReader, error) {
	return journal.NewReader(r)
}

// ReplayReport summarizes one replay verification pass; see
// ReplayJournal.
type ReplayReport = journal.ReplayReport

// ReplayMismatch pinpoints the first divergence between recorded and
// replayed decision streams; nil on a ReplayReport means the streams
// were byte-identical.
type ReplayMismatch = journal.Mismatch

// ReplayJournal feeds the journaled observation stream through a
// detector built by factory and verifies that the resulting decisions
// are byte-identical to the recorded ones — the package's determinism
// guarantee, checkable after the fact. factory must construct the same
// detector configuration that recorded the journal; every stream of a
// fleet journal is built by it too.
func ReplayJournal(jr *JournalReader, factory func() (Detector, error)) (ReplayReport, error) {
	return journal.Replay(jr, func(string) (Detector, error) { return factory() })
}
