package rejuv

import (
	"encoding/json"
	"io"
	"sync"

	"rejuv/internal/core"
	"rejuv/internal/journal"
)

// DefaultTraceCapacity is the ring size NewTraceLog uses when given a
// non-positive capacity.
const DefaultTraceCapacity = 1024

// TraceLog is a fixed-capacity ring buffer of detector decisions, held
// as journal decision records. Attach one via MonitorConfig.Trace and
// the monitor records every decision it would journal (one record per
// completed sample or trigger, not per raw observation); when the ring
// is full the oldest records are overwritten. All methods are safe for
// concurrent use.
//
// A ring record is the record the monitor hands its journal — same
// Time, Stream (0) and TriggerID — with two fields the journal leaves
// to its observe records: Seq is the monitor's 1-based observation
// ordinal at the decision (not a journal sequence number), and Value is
// the observation that completed the sample.
type TraceLog struct {
	mu      sync.Mutex
	entries []JournalRecord // guarded by mu
	next    int             // ring write position once the ring is full; guarded by mu
	total   uint64          // records ever recorded; guarded by mu
	readTo  uint64          // highest ordinal included in any snapshot so far; guarded by mu
	dropped uint64          // records overwritten before any snapshot saw them; guarded by mu

	// droppedCtr mirrors dropped into a metrics registry when
	// Instrument was called; nil otherwise; guarded by mu.
	droppedCtr *MetricCounter
}

// NewTraceLog returns a trace log keeping the most recent capacity
// records (DefaultTraceCapacity when capacity <= 0).
func NewTraceLog(capacity int) *TraceLog {
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	return &TraceLog{entries: make([]JournalRecord, 0, capacity)}
}

// Record appends one record, overwriting the oldest once the ring is
// full. Monitors fill their slots in place instead; Record is exported
// so replay and analysis tooling can build logs from recorded data.
func (l *TraceLog) Record(e JournalRecord) {
	l.mu.Lock()
	defer l.mu.Unlock()
	*l.nextSlotLocked() = e
}

// step fills the next slot in place with the decision record of one
// monitor step s, the record the monitor hands its journal with Seq
// set to the observation ordinal and Value to the admitted value.
func (l *TraceLog) step(t float64, ordinal uint64, s *core.Step, in core.Internals, suppressed bool, triggerID uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	r := l.nextSlotLocked()
	*r = JournalRecord{Kind: journal.KindDecision, Seq: ordinal, Time: t, Value: s.Value, TriggerID: triggerID}
	r.SetDecision(s.Decision, in, suppressed)
}

// nextSlotLocked counts one more record and returns the slot it goes
// in: the next free one while the ring fills, then the oldest. l.mu is
// held.
//
//lint:holds mu
func (l *TraceLog) nextSlotLocked() *JournalRecord {
	l.total++
	if n := len(l.entries); n < cap(l.entries) {
		l.entries = l.entries[:n+1]
		return &l.entries[n]
	}
	// Records carry 1-based ordinals; the one being overwritten is the
	// oldest retained, ordinal total - capacity. If no snapshot ever
	// included it, its evidence is lost for good — count the drop so
	// operators can tell "the ring was big enough" from "we lost
	// decisions nobody looked at".
	if overwritten := l.total - uint64(len(l.entries)); overwritten > l.readTo {
		l.dropped++
		if l.droppedCtr != nil {
			l.droppedCtr.Inc()
		}
	}
	r := &l.entries[l.next]
	l.next++
	if l.next == len(l.entries) {
		l.next = 0
	}
	return r
}

// Dropped returns the number of records that were overwritten before
// any snapshot (Entries, TriggerContext or Dump) had seen them.
func (l *TraceLog) Dropped() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.dropped
}

// Instrument registers rejuv_tracelog_dropped_total in reg and
// increments it whenever the ring overwrites a never-snapshotted
// record. Call it once, before the log is attached to a monitor.
func (l *TraceLog) Instrument(reg *Registry, labels ...Label) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.droppedCtr = reg.Counter("rejuv_tracelog_dropped_total",
		"trace entries overwritten before any snapshot read them", labels...)
	l.droppedCtr.Add(l.dropped)
}

// Len returns the number of records currently retained.
func (l *TraceLog) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.entries)
}

// Total returns the number of records ever recorded, including those
// already overwritten.
func (l *TraceLog) Total() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.total
}

// Entries returns a copy of the retained records, oldest first.
func (l *TraceLog) Entries() []JournalRecord {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.readTo = l.total
	return l.snapshotLocked()
}

// snapshotLocked copies the ring in oldest-first order; l.mu is held.
//
//lint:holds mu
func (l *TraceLog) snapshotLocked() []JournalRecord {
	out := make([]JournalRecord, 0, len(l.entries))
	if len(l.entries) == cap(l.entries) {
		out = append(out, l.entries[l.next:]...)
		out = append(out, l.entries[:l.next]...)
		return out
	}
	return append(out, l.entries...)
}

// TriggerContext returns the most recent triggered record together with
// up to k-1 records leading into it, oldest first — the minimal
// explanation of why the detector fired. It returns nil when no
// retained record triggered.
func (l *TraceLog) TriggerContext(k int) []JournalRecord {
	if k <= 0 {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.readTo = l.total
	all := l.snapshotLocked()
	for i := len(all) - 1; i >= 0; i-- {
		if !all[i].Triggered {
			continue
		}
		start := i - k + 1
		if start < 0 {
			start = 0
		}
		return all[start : i+1]
	}
	return nil
}

// dumpHeader is the first line of a Dump: how much of the decision
// history the record lines that follow actually cover.
type dumpHeader struct {
	// Retained is the number of record lines that follow.
	Retained int `json:"retained"`
	// Total is the number of records ever recorded.
	Total uint64 `json:"total"`
	// Dropped is the number of records overwritten before any snapshot
	// saw them — evidence lost for good.
	Dropped uint64 `json:"dropped"`
}

// Dump writes a header line followed by the retained records, oldest
// first, one JSON object per line in the journal's JSON-lines record
// encoding. The header reports how many records the dump retains, how
// many were ever recorded, and how many were dropped (overwritten
// before any snapshot saw them), so a reader can tell a complete
// history from a truncated one.
func (l *TraceLog) Dump(w io.Writer) error {
	l.mu.Lock()
	l.readTo = l.total
	entries := l.snapshotLocked()
	hdr := dumpHeader{Retained: len(entries), Total: l.total, Dropped: l.dropped}
	l.mu.Unlock()

	enc := json.NewEncoder(w)
	if err := enc.Encode(hdr); err != nil {
		return err
	}
	for _, r := range entries {
		if err := enc.Encode(r); err != nil {
			return err
		}
	}
	return nil
}
