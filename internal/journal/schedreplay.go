package journal

import (
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"

	"rejuv/internal/sched"
)

// This file extends deterministic replay to scheduler journals. The
// sched.Governor is a pure state machine whose inputs are all journaled:
// every request arrives as the group-leading admission record (enqueue,
// duplicate coalesce, or an explicit refusal defer, which carry the
// request's level/fill/deadline), completions, give-ups and readmissions
// arrive as their own records, and any other group-leading scheduler
// record marks a time-driven tick. ReplaySched re-derives the whole
// transition stream from those inputs through a fresh Governor and
// verifies it against the journal byte for byte, making scheduling
// decisions as auditable as detector decisions.

// IsSched reports whether the kind is a scheduler transition record.
func (k Kind) IsSched() bool { return k >= KindSchedEnqueue && k <= KindSchedReadmit }

// SchedRecord maps one governor transition onto its canonical journal
// record. It is shared by journaling callers (via Writer.Record) and
// the replay verifier, so both sides encode identical bytes.
func SchedRecord(tr sched.Transition) Record {
	r := Record{Time: tr.Time, Stream: uint64(tr.Replica), TriggerID: tr.TriggerID}
	switch tr.Op {
	case sched.OpEnqueue:
		r.Kind = KindSchedEnqueue
		r.Level, r.Fill = tr.Level, tr.Fill
		r.EventTime = tr.Deadline
		r.Value = tr.Urgency
	case sched.OpDefer:
		r.Kind = KindSchedDefer
		r.Class = tr.Reason
		r.Level, r.Fill = tr.Level, tr.Fill
		r.Attempt = tr.Count
	case sched.OpCoalesce:
		r.Kind = KindSchedCoalesce
		r.Class = tr.Reason
		r.Level, r.Fill = tr.Level, tr.Fill
		r.Attempt = tr.Count
		r.EventTime = tr.Deadline
		r.Value = tr.Urgency
	case sched.OpStart:
		r.Kind = KindSchedStart
		r.Class = tr.Tier.Name
		r.Value = tr.Tier.Rho
		r.Backoff = tr.Pause
	case sched.OpComplete:
		r.Kind = KindSchedComplete
		r.OK = tr.OK
	case sched.OpQuarantine:
		r.Kind = KindSchedQuarantine
		r.Class = tr.Reason
	case sched.OpReadmit:
		r.Kind = KindSchedReadmit
	}
	return r
}

// SchedReplayReport summarizes one scheduler replay verification pass.
type SchedReplayReport struct {
	// Records counts scheduler records verified.
	Records int
	// Enqueues, Defers, Coalesces, Starts, Completes, Quarantines and
	// Readmits count them by kind.
	Enqueues, Defers, Coalesces, Starts, Completes, Quarantines, Readmits int
	// MaxDownSeen is the per-group high-water mark of simultaneously
	// down replicas in the replayed governor — the replay-side proof of
	// the capacity-budget law.
	MaxDownSeen []int
	// Mismatch describes the first divergence, nil when the replayed
	// transition stream is byte-identical to the journaled one.
	Mismatch *Mismatch
}

// Identical reports whether the replayed scheduler transition stream
// matched the journaled one byte for byte.
func (r SchedReplayReport) Identical() bool { return r.Mismatch == nil }

// encodeSchedRecord renders the full canonical byte form of a scheduler
// record (kind, seq, time, payload), the unit of replay comparison.
func encodeSchedRecord(r *Record) []byte {
	b := []byte{byte(r.Kind)}
	b = binary.AppendUvarint(b, r.Seq)
	b = appendF64(b, r.Time)
	return appendPayload(b, r)
}

// ReplaySched feeds the journaled scheduler inputs through a fresh
// Governor built from cfg — which must be the configuration of the
// recording run — and verifies every scheduler record against the
// re-derived transition stream byte for byte. Non-scheduler records
// (observations, decisions, rejuvenations, GC events) are ignored, so
// a cluster journal carrying everything interleaved verifies as-is.
//
// Replay stops at the first divergence and reports it; a nil error with
// report.Identical() true is the determinism proof for the scheduling
// layer.
func ReplaySched(jr *Reader, cfg sched.Config) (SchedReplayReport, error) {
	var report SchedReplayReport
	g, err := sched.New(cfg)
	if err != nil {
		return report, fmt.Errorf("journal: sched replay governor: %w", err)
	}
	// pending holds the re-derived records of the current transition
	// group awaiting their journaled counterparts.
	var pending []Record
	rec := new(Record)
	for {
		err := jr.next(rec)
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return report, err
		}
		if !rec.Kind.IsSched() {
			continue
		}
		report.Records++
		report.count(rec.Kind)
		if len(pending) == 0 {
			out := schedInput(g, rec)
			if len(out) == 0 {
				report.Mismatch = structuralMismatch(rec, fmt.Sprintf("replayed governor produced no transition for %s record", rec.Kind))
				return report, nil
			}
			pending = pending[:0]
			for _, tr := range out {
				pending = append(pending, SchedRecord(tr))
			}
		}
		exp := &pending[0]
		pending = pending[1:]
		exp.Seq = rec.Seq
		recBytes := encodeSchedRecord(rec)
		expBytes := encodeSchedRecord(exp)
		if string(recBytes) != string(expBytes) {
			report.Mismatch = &Mismatch{
				Seq:      rec.Seq,
				Time:     rec.Time,
				Reason:   fmt.Sprintf("scheduler transition differs (recorded %s, replayed %s)", rec.Kind, exp.Kind),
				Recorded: hex.EncodeToString(recBytes),
				Replayed: hex.EncodeToString(expBytes),
			}
			return report, nil
		}
	}
	if len(pending) > 0 {
		report.Mismatch = &Mismatch{Reason: fmt.Sprintf("%d replayed scheduler transitions at end of journal have no recorded counterpart (next: %s)", len(pending), pending[0].Kind)}
		return report, nil
	}
	report.MaxDownSeen = make([]int, g.Groups())
	for grp := range report.MaxDownSeen {
		report.MaxDownSeen[grp] = g.MaxDownSeen(grp)
	}
	return report, nil
}

// count tallies one verified record by kind.
func (r *SchedReplayReport) count(k Kind) {
	switch k {
	case KindSchedEnqueue:
		r.Enqueues++
	case KindSchedDefer:
		r.Defers++
	case KindSchedCoalesce:
		r.Coalesces++
	case KindSchedStart:
		r.Starts++
	case KindSchedComplete:
		r.Completes++
	case KindSchedQuarantine:
		r.Quarantines++
	case KindSchedReadmit:
		r.Readmits++
	}
}

// schedInput derives the governor input a group-leading record implies
// and applies it, returning the re-derived transition group.
//
// The classification mirrors the governor's emission contract: a
// request is always announced by its admission decision (enqueue,
// duplicate coalesce, or a saturated/in-flight/quarantined refusal
// defer — all carrying the request's replica, level, fill and, for
// admissions, deadline); completions, quarantines and readmissions
// lead their own groups; any other group-leading record (a start, a
// window defer, a starvation escalation) can only have been produced
// by the passage of time, i.e. a tick.
func schedInput(g *sched.Governor, rec *Record) []sched.Transition {
	replica := int(rec.Stream)
	switch rec.Kind {
	case KindSchedEnqueue:
		return g.Request(rec.Time, replica, rec.Level, rec.Fill, rec.EventTime, rec.TriggerID)
	case KindSchedCoalesce:
		if rec.Class == sched.ReasonDuplicate {
			return g.Request(rec.Time, replica, rec.Level, rec.Fill, rec.EventTime, rec.TriggerID)
		}
		return g.Tick(rec.Time)
	case KindSchedDefer:
		switch rec.Class {
		case sched.ReasonSaturated, sched.ReasonInFlight, sched.ReasonQuarantined:
			return g.Request(rec.Time, replica, rec.Level, rec.Fill, 0, rec.TriggerID)
		}
		return g.Tick(rec.Time)
	case KindSchedStart:
		return g.Tick(rec.Time)
	case KindSchedComplete:
		return g.Complete(rec.Time, replica, rec.OK)
	case KindSchedQuarantine:
		return g.GiveUp(rec.Time, replica, rec.Class)
	case KindSchedReadmit:
		return g.Readmit(rec.Time, replica)
	}
	return nil
}
