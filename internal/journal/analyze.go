package journal

import (
	"math"
)

// This file turns a journal into the numbers and timelines the
// cmd/rejuvtrace CLI renders: per-trigger context windows, per-phase
// statistics (time from first target exceedance to trigger, bucket
// dwell times, suppressed-trigger counts) and diffs between two
// journals (e.g. SRAA vs SARAA on the same seed).

// TriggerEvent is one delivered trigger with the context that explains
// it. A "phase" is the stretch from the previous trigger (or the start
// of the replication) to this trigger.
type TriggerEvent struct {
	// Index is the 1-based trigger ordinal across the journal.
	Index int
	// Rep is the replication the trigger fired in (0 when the journal
	// has no replication markers).
	Rep int
	// Stream is the stream that triggered (0 for the single-detector
	// stream).
	Stream uint64
	// Seq and Time locate the triggering decision record.
	Seq  uint64
	Time float64
	// TriggerID is the trigger's correlation id (0 for journals written
	// before trigger ids existed); actuator executions carrying the same
	// id were caused by this trigger.
	TriggerID uint64
	// Window holds the triggering stream's decision records leading up
	// to and including the trigger, oldest first, bounded by the
	// analysis window.
	Window []Record
	// FirstExceedance is the time of the phase's first evaluated
	// decision whose sample mean exceeded its target; NaN when the
	// trigger fired without a prior exceedance in the window of the
	// phase (cannot happen for bucket detectors).
	FirstExceedance float64
	// TimeToTrigger is Time - FirstExceedance, the paper's
	// time-to-trigger metric for this phase; NaN when FirstExceedance
	// is NaN.
	TimeToTrigger float64
	// Dwell maps bucket level -> virtual seconds the detector spent at
	// that level during the phase (indexed by level, zero-padded).
	Dwell []float64
	// Suppressed counts triggers eaten by the cooldown during the phase.
	Suppressed int
	// GCs counts full garbage collections during the phase.
	GCs int
}

// Analysis is the digest of one journal.
type Analysis struct {
	// Meta is the journal header.
	Meta Meta
	// Format is the codec the journal was read in.
	Format Format
	// Records counts all records.
	Records int
	// Reps counts replication markers (0 for unmarked journals).
	Reps int
	// Observations, Decisions, Resets, Rejuvenations, GCs and
	// KernelEvents count records by family.
	Observations  int
	Decisions     int
	Resets        int
	Rejuvenations int
	GCs           int
	KernelEvents  int
	// Triggers counts delivered (non-suppressed) triggering decisions;
	// Suppressed counts cooldown-eaten ones.
	Triggers   int
	Suppressed int
	// Killed totals transactions terminated by rejuvenations.
	Killed int
	// Faults counts injected/detected telemetry fault records.
	Faults int
	// Rebaselines counts workload-shift rebaseline records.
	Rebaselines int
	// RebaselineEvents holds the rebaseline records in journal order, so
	// timelines can show where the baseline moved and to what.
	RebaselineEvents []Record
	// FaultClasses tallies fault records per class, in first-seen order.
	FaultClasses []FaultCount
	// Duration is the largest timestamp seen, per replication summed
	// across reps boundaries (time restarts at each RepStart).
	Duration float64
	// Events holds one entry per delivered trigger, in journal order.
	Events []TriggerEvent
	// Actions holds one entry per actuator execution, in journal order.
	Actions []ActionEvent
	// Sched tallies the scheduling layer's records; all-zero when the
	// journal has no scheduler (verify a schedule with ReplaySched).
	Sched SchedCensus
}

// SchedCensus summarizes a journal's scheduler records.
type SchedCensus struct {
	// Records counts all scheduler records.
	Records int
	// Enqueues, Defers, Coalesces, Starts, Completes, Quarantines and
	// Readmits count them by kind.
	Enqueues, Defers, Coalesces, Starts, Completes, Quarantines, Readmits int
	// StartsByTier tallies dispatched actions per tier name, in
	// first-seen order.
	StartsByTier []TierCount
	// DefersByReason tallies deferral decisions per reason class, in
	// first-seen order.
	DefersByReason []ReasonCount
	// QuarantineEvents holds the quarantine and readmit records in
	// journal order, so timelines can show capacity shed and restored.
	QuarantineEvents []Record
}

// TierCount is one action tier with its dispatch count.
type TierCount struct {
	// Tier is the tier name ("minor", "medium", "major").
	Tier string
	// N counts its dispatched actions.
	N int
}

// ReasonCount is one deferral reason with its record count.
type ReasonCount struct {
	// Reason is the deferral class ("budget", "deadline", ...).
	Reason string
	// N counts its deferral records.
	N int
}

// FaultCount is one fault class with its record count.
type FaultCount struct {
	// Class is the fault class name.
	Class string
	// N counts its fault records.
	N int
}

// ActionEvent is one actuator execution reconstructed from the journal:
// the start record, every attempt, and how it ended.
type ActionEvent struct {
	// Index is the 1-based execution ordinal across the journal.
	Index int
	// Rep is the replication the execution started in.
	Rep int
	// Start is the timestamp of the KindActStart record.
	Start float64
	// TriggerID links the execution back to the trigger that provoked it
	// (0 when the journal carries no ids or the execution was manual).
	TriggerID uint64
	// Attempts holds the execution's attempt records in order.
	Attempts []Record
	// GaveUp reports a terminal KindActGiveUp escalation.
	GaveUp bool
	// End is the timestamp of the final attempt or give-up record seen.
	End float64
}

// Succeeded reports whether any attempt of the execution succeeded.
func (e ActionEvent) Succeeded() bool {
	for _, a := range e.Attempts {
		if a.OK {
			return true
		}
	}
	return false
}

// phase is the analysis state of one stream between two delivered
// triggers: the recent decisions that form the next trigger's window,
// the first target exceedance, the bucket dwell, and the cooldown-eaten
// triggers and GCs seen since the last trigger.
type phase struct {
	recent     []Record
	firstExc   float64
	dwell      []float64
	dwellLevel int
	dwellSince float64
	suppressed int
	gcs        int
}

// reset starts a new phase; the decision window carries over.
func (p *phase) reset() {
	*p = phase{recent: p.recent, firstExc: math.NaN(), dwellSince: math.NaN()}
}

// accumulateDwell credits the time since the last decision to the
// level the detector sat at.
func (p *phase) accumulateDwell(t float64) {
	if math.IsNaN(p.dwellSince) {
		return
	}
	for len(p.dwell) <= p.dwellLevel {
		p.dwell = append(p.dwell, 0)
	}
	p.dwell[p.dwellLevel] += t - p.dwellSince
}

// Analyze digests records into trigger timelines and phase statistics.
// window bounds how many decision records each trigger retains as
// context (minimum 1, the trigger itself). Phases are tracked per
// stream, so a trigger's window, exceedance and dwell describe only the
// stream that triggered; GC records describe the simulated host of the
// single-detector stream 0.
func Analyze(meta Meta, format Format, records []Record, window int) Analysis {
	if window < 1 {
		window = 1
	}
	a := Analysis{Meta: meta, Format: format, Records: len(records)}

	var (
		rep     int
		repBase float64 // duration accumulated over finished reps
		lastT   float64 // largest time in current rep
		phases  = make(map[uint64]*phase)
	)
	phaseOf := func(stream uint64) *phase {
		p, ok := phases[stream]
		if !ok {
			p = &phase{}
			p.reset()
			phases[stream] = p
		}
		return p
	}

	for _, r := range records {
		if r.Time > lastT {
			lastT = r.Time
		}
		switch r.Kind {
		case KindRepStart:
			a.Reps++
			rep = r.Rep
			repBase += lastT
			lastT = 0
			clear(phases)
		case KindObserve:
			a.Observations++
		case KindDecision:
			a.Decisions++
			p := phaseOf(r.Stream)
			p.recent = append(p.recent, r)
			if len(p.recent) > window {
				p.recent = p.recent[len(p.recent)-window:]
			}
			if math.IsNaN(p.firstExc) && r.SampleMean > r.Target {
				p.firstExc = r.Time
			}
			p.accumulateDwell(r.Time)
			p.dwellLevel = r.Level
			p.dwellSince = r.Time
			switch {
			case r.Triggered && r.Suppressed:
				a.Suppressed++
				p.suppressed++
			case r.Triggered:
				a.Triggers++
				ev := TriggerEvent{
					Index:           a.Triggers,
					Rep:             rep,
					Stream:          r.Stream,
					Seq:             r.Seq,
					Time:            r.Time,
					TriggerID:       r.TriggerID,
					Window:          append([]Record(nil), p.recent...),
					FirstExceedance: p.firstExc,
					TimeToTrigger:   r.Time - p.firstExc,
					Dwell:           p.dwell,
					Suppressed:      p.suppressed,
					GCs:             p.gcs,
				}
				a.Events = append(a.Events, ev)
				p.reset()
			}
		case KindReset:
			a.Resets++
			// A reset is journal-wide; phases are independent, so the
			// map order is immaterial.
			for _, p := range phases {
				p.reset()
			}
		case KindRejuvenation:
			a.Rejuvenations++
			a.Killed += r.Killed
		case KindGCStart:
			a.GCs++
			phaseOf(0).gcs++
		case KindGCEnd:
			// counted at start
		case KindSimScheduled, KindSimFired, KindSimCancelled:
			a.KernelEvents++
		case KindFault:
			a.Faults++
			found := false
			for i := range a.FaultClasses {
				if a.FaultClasses[i].Class == r.Class {
					a.FaultClasses[i].N++
					found = true
					break
				}
			}
			if !found {
				a.FaultClasses = append(a.FaultClasses, FaultCount{Class: r.Class, N: 1})
			}
		case KindRebaseline:
			a.Rebaselines++
			a.RebaselineEvents = append(a.RebaselineEvents, r)
		case KindSchedEnqueue:
			a.Sched.Records++
			a.Sched.Enqueues++
		case KindSchedDefer:
			a.Sched.Records++
			a.Sched.Defers++
			bumpReason(&a.Sched.DefersByReason, r.Class)
		case KindSchedCoalesce:
			a.Sched.Records++
			a.Sched.Coalesces++
		case KindSchedStart:
			a.Sched.Records++
			a.Sched.Starts++
			bumpTier(&a.Sched.StartsByTier, r.Class)
		case KindSchedComplete:
			a.Sched.Records++
			a.Sched.Completes++
		case KindSchedQuarantine:
			a.Sched.Records++
			a.Sched.Quarantines++
			a.Sched.QuarantineEvents = append(a.Sched.QuarantineEvents, r)
		case KindSchedReadmit:
			a.Sched.Records++
			a.Sched.Readmits++
			a.Sched.QuarantineEvents = append(a.Sched.QuarantineEvents, r)
		case KindActStart:
			a.Actions = append(a.Actions, ActionEvent{
				Index: len(a.Actions) + 1, Rep: rep, Start: r.Time, End: r.Time,
				TriggerID: r.TriggerID,
			})
		case KindActAttempt:
			if n := len(a.Actions); n > 0 {
				act := &a.Actions[n-1]
				act.Attempts = append(act.Attempts, r)
				act.End = r.Time
			}
		case KindActGiveUp:
			if n := len(a.Actions); n > 0 {
				act := &a.Actions[n-1]
				act.GaveUp = true
				act.End = r.Time
			}
		}
	}
	a.Duration = repBase + lastT
	return a
}

// bumpTier increments the count for a tier name, appending it on first
// sight so StartsByTier preserves journal order.
func bumpTier(tiers *[]TierCount, name string) {
	for i := range *tiers {
		if (*tiers)[i].Tier == name {
			(*tiers)[i].N++
			return
		}
	}
	*tiers = append(*tiers, TierCount{Tier: name, N: 1})
}

// bumpReason is bumpTier for deferral reason classes.
func bumpReason(reasons *[]ReasonCount, name string) {
	for i := range *reasons {
		if (*reasons)[i].Reason == name {
			(*reasons)[i].N++
			return
		}
	}
	*reasons = append(*reasons, ReasonCount{Reason: name, N: 1})
}

// CausalityChain is the full observation → decision → actuation story
// of one trigger id: the observations that fed the triggering decision,
// the decision itself, and every actuator execution the trigger
// provoked. Trigger ids are minted deterministically at decision time
// (core.TriggerID) and stamped on decision and actuator records, so the
// chain can be reassembled from the journal alone.
type CausalityChain struct {
	// TriggerID is the traced correlation id.
	TriggerID uint64
	// Stream is the decision's stream (0 for the single-detector stream)
	// and Class its detector class when the journal recorded the
	// stream's open.
	Stream uint64
	Class  string
	// Observations holds the decision's stream's observation records
	// that fed it, oldest first, bounded by the trace window.
	Observations []Record
	// Decision is the decision record carrying the id.
	Decision Record
	// Actions holds the actuator executions carrying the id.
	Actions []ActionEvent
}

// TraceCausality reassembles the causality chain of one trigger id from
// a journal's records. window bounds how many observations are kept
// (minimum 1); observations never cross a replication boundary. It
// reports false when no decision record carries the id — including for
// id 0, which journals written before trigger ids use everywhere.
func TraceCausality(records []Record, id uint64, window int) (CausalityChain, bool) {
	if id == 0 {
		return CausalityChain{}, false
	}
	if window < 1 {
		window = 1
	}
	c := CausalityChain{TriggerID: id}
	di := -1
	for i := range records {
		r := &records[i]
		if r.Kind == KindDecision && r.TriggerID == id {
			di = i
			c.Decision = *r
			c.Stream = r.Stream
			break
		}
	}
	if di < 0 {
		return CausalityChain{}, false
	}

	// Walk backwards from the decision collecting its stream's
	// observations, newest first, then restore journal order.
scan:
	for i := di - 1; i >= 0 && len(c.Observations) < window; i-- {
		r := &records[i]
		switch {
		case r.Kind == KindRepStart:
			break scan
		case r.Kind == KindObserve && r.Stream == c.Stream:
			c.Observations = append(c.Observations, *r)
		}
	}
	for l, r := 0, len(c.Observations)-1; l < r; l, r = l+1, r-1 {
		c.Observations[l], c.Observations[r] = c.Observations[r], c.Observations[l]
	}

	for i := range records {
		r := &records[i]
		if r.Kind == KindStreamOpen && r.Stream == c.Stream {
			c.Class = r.Class
		}
	}

	// Actuator executions carrying the id: attempts and give-ups group
	// under the preceding KindActStart, exactly as Analyze groups them.
	var cur *ActionEvent
	flush := func() {
		if cur != nil {
			c.Actions = append(c.Actions, *cur)
			cur = nil
		}
	}
	for i := range records {
		r := &records[i]
		switch r.Kind {
		case KindActStart:
			flush()
			if r.TriggerID == id {
				cur = &ActionEvent{
					Index: len(c.Actions) + 1, Start: r.Time, End: r.Time,
					TriggerID: id,
				}
			}
		case KindActAttempt:
			if cur != nil {
				cur.Attempts = append(cur.Attempts, *r)
				cur.End = r.Time
			}
		case KindActGiveUp:
			if cur != nil {
				cur.GaveUp = true
				cur.End = r.Time
			}
		}
	}
	flush()
	return c, true
}

// PhaseStats aggregates the per-phase metrics across all triggers of an
// analysis: the distribution of time-to-trigger and the mean virtual
// time spent at each bucket level.
type PhaseStats struct {
	// Triggers counts the phases aggregated.
	Triggers int
	// TimeToTrigger holds min/mean/max seconds from first target
	// exceedance to trigger, over phases where an exceedance was seen.
	TimeToTrigger MinMeanMax
	// DwellMean is the mean virtual seconds per bucket level across
	// phases, indexed by level.
	DwellMean []float64
	// SuppressedTotal counts cooldown-eaten triggers across all phases.
	SuppressedTotal int
}

// MinMeanMax is a three-point summary of a non-empty sample; all fields
// are NaN when N is zero.
type MinMeanMax struct {
	// N is the sample size.
	N int
	// Min, Mean and Max summarize the sample.
	Min, Mean, Max float64
}

// add folds one value into the summary.
func (s *MinMeanMax) add(v float64) {
	if s.N == 0 {
		s.Min, s.Max = v, v
	} else {
		s.Min = math.Min(s.Min, v)
		s.Max = math.Max(s.Max, v)
	}
	// Mean holds the running sum until finalized by Phases.
	s.Mean += v
	s.N++
}

// Phases computes the aggregate phase statistics of the analysis.
func (a Analysis) Phases() PhaseStats {
	ps := PhaseStats{Triggers: len(a.Events)}
	ps.TimeToTrigger = MinMeanMax{Min: math.NaN(), Mean: math.NaN(), Max: math.NaN()}
	var ttt MinMeanMax
	var dwellSum []float64
	for _, ev := range a.Events {
		ps.SuppressedTotal += ev.Suppressed
		if !math.IsNaN(ev.TimeToTrigger) {
			ttt.add(ev.TimeToTrigger)
		}
		for lvl, d := range ev.Dwell {
			for len(dwellSum) <= lvl {
				dwellSum = append(dwellSum, 0)
			}
			dwellSum[lvl] += d
		}
	}
	if ttt.N > 0 {
		ttt.Mean /= float64(ttt.N)
		ps.TimeToTrigger = ttt
	}
	if len(a.Events) > 0 {
		ps.DwellMean = make([]float64, len(dwellSum))
		for i, s := range dwellSum {
			ps.DwellMean[i] = s / float64(len(a.Events))
		}
	}
	return ps
}

// DiffReport compares two journals decision by decision, the tool for
// questions like "where did SARAA commit earlier than SRAA on the same
// seed".
type DiffReport struct {
	// A and B are the two analyses.
	A, B Analysis
	// CommonDecisions counts leading decisions identical in both
	// journals (same stream and time, canonical byte comparison,
	// suppression masked).
	CommonDecisions int
	// Divergence describes the first differing decision pair; nil when
	// one stream is a prefix of the other.
	Divergence *DecisionDiff
}

// DecisionDiff is the first differing decision pair of a diff.
type DecisionDiff struct {
	// Ordinal is the 0-based index into both decision streams.
	Ordinal int
	// A and B are the differing records.
	A, B Record
}

// Diff analyzes both record streams and locates the first decision
// where they part ways.
func Diff(metaA Meta, a []Record, metaB Meta, b []Record, window int) DiffReport {
	rep := DiffReport{
		A: Analyze(metaA, FormatBinary, a, window),
		B: Analyze(metaB, FormatBinary, b, window),
	}
	da, db := decisions(a), decisions(b)
	n := len(da)
	if len(db) < n {
		n = len(db)
	}
	for i := 0; i < n; i++ {
		if !sameDecisionRecord(&da[i], &db[i]) {
			rep.Divergence = &DecisionDiff{Ordinal: i, A: da[i], B: db[i]}
			return rep
		}
		rep.CommonDecisions++
	}
	return rep
}

// decisions filters the decision records of a journal, every stream's
// in journal order.
func decisions(records []Record) []Record {
	var out []Record
	for _, r := range records {
		if r.Kind == KindDecision {
			out = append(out, r)
		}
	}
	return out
}

// sameDecisionRecord compares two decision records on stream,
// timestamp and detector-owned fields, masking the cooldown-owned
// suppression flag.
func sameDecisionRecord(x, y *Record) bool {
	if x.Stream != y.Stream || !sameF64Bits(x.Time, y.Time) {
		return false
	}
	dx, inx := recordDecision(x)
	dy, iny := recordDecision(y)
	return sameDecision(dx, inx, dy, iny)
}
