// Package journal is the flight recorder of this repository: an
// append-only event journal that records every simulation event,
// detector evaluation and control action with a virtual timestamp, a
// sequence number and a typed payload, so the causal chain behind every
// rejuvenation decision — heap growth, GC stall, response-time
// excursion, bucket walk, trigger — survives the run that produced it.
//
// Two codecs share one record model. The binary codec is the production
// format: length-prefixed little-endian records with a zero-allocation
// encode path, so recording never perturbs the simulation or the
// benchmarks that time it. The JSON-lines codec is the debug format:
// one object per line, greppable and jq-able. Readers auto-detect the
// codec from the first bytes of the stream.
//
// On top of the codec the package provides deterministic replay
// (replay.go): a journal plus the detector specification reconstructs
// the exact detector state trajectory, and Replay asserts that the
// replayed decision stream is byte-identical to the recorded one. The
// analysis layer (analyze.go) extracts trigger timelines, per-phase
// statistics and journal diffs for the cmd/rejuvtrace CLI.
package journal

import (
	"encoding/json"
	"fmt"
)

// Format discriminates the two codecs of the journal.
type Format int

// Journal codecs. Binary is the production format; JSONL is the
// greppable debug format. Readers auto-detect from the stream head.
const (
	// FormatBinary is the length-prefixed little-endian codec.
	FormatBinary Format = iota
	// FormatJSONL is the one-JSON-object-per-line debug codec.
	FormatJSONL
)

// String returns the format's flag-value spelling ("bin" or "jsonl").
func (f Format) String() string {
	switch f {
	case FormatBinary:
		return "bin"
	case FormatJSONL:
		return "jsonl"
	}
	return fmt.Sprintf("Format(%d)", int(f))
}

// Kind identifies the typed payload of one record.
type Kind byte

// Record kinds. Zero is invalid so a zeroed record is detectably empty.
const (
	// KindRepStart marks the beginning of one replication: the detector
	// is fresh and the virtual clock restarts.
	KindRepStart Kind = iota + 1
	// KindObserve is one observation of the monitored metric fed to the
	// detector of one stream (a completed transaction's response time, or
	// a timed request in production). Stream 0 is the single-detector
	// stream; fleet streams carry their id.
	KindObserve
	// KindDecision is one evaluated detector decision on one stream, with
	// the detector internals captured immediately after the step.
	KindDecision
	// KindReset is an externally initiated detector reset (the model's
	// post-rejuvenation reset, or Monitor.Reset).
	KindReset
	// KindRejuvenation is the control action: the system was rejuvenated,
	// killing the recorded number of in-flight transactions.
	KindRejuvenation
	// KindGCStart marks the onset of a stop-the-world full GC stall.
	KindGCStart
	// KindGCEnd marks the end of a full GC stall.
	KindGCEnd
	// KindSimScheduled is a DES kernel event pushed onto the queue; the
	// payload carries the virtual time it is scheduled to fire at.
	KindSimScheduled
	// KindSimFired is a DES kernel event whose handler ran.
	KindSimFired
	// KindSimCancelled is a DES kernel event removed before firing.
	KindSimCancelled
	// KindFault is an injected or detected telemetry fault: a corrupted
	// observation rejected by hygiene, a value altered by the fault
	// injector, a dropped or duplicated sample, a detected probe stall.
	// Class names the fault; Value carries the observation involved,
	// and Stream the stream a hygiene interception happened on.
	KindFault
	// KindActStart marks the start of one rejuvenation action execution
	// by an Actuator.
	KindActStart
	// KindActAttempt is one attempt of a rejuvenation action: Attempt is
	// the 1-based attempt number, OK its outcome, Backoff the delay (in
	// seconds) scheduled before the next attempt (0 when none follows),
	// and Class the error text on failure.
	KindActAttempt
	// KindActGiveUp is the terminal escalation: the Actuator exhausted
	// its retry budget. Attempt carries the total attempts made and
	// Class the last error text.
	KindActGiveUp
	// KindStreamOpen marks a fleet stream coming under monitoring: Stream
	// is the stream id, Class the detector class it was opened with.
	KindStreamOpen
	// KindStreamClose marks a fleet stream leaving monitoring; Stream is
	// the stream id.
	KindStreamClose
	// Kinds 17 and 18 carried the fleet forms of observe and decision in
	// format version 1; they stay unassigned so every surviving kind
	// keeps its byte value, and the decoder rejects them.
	_
	_
	// KindRebaseline marks a committed workload-shift rebaseline on one
	// stream: the shift layer classified a change as a workload shift,
	// relearned, and BaseMean/BaseStdDev carry the new baseline now in
	// effect. Replay verifies them bitwise against the reference
	// detector's re-estimated baseline.
	KindRebaseline
	// Kind 20 carried the fleet form of rebaseline in format version 1
	// and stays unassigned.
	_
	// KindSchedEnqueue marks a rejuvenation request admitted to the
	// scheduler queue: Stream is the replica id, Level/Fill the detector
	// state that raised it, Value the computed urgency, and TriggerID the
	// triggering decision it descends from (0 when none).
	KindSchedEnqueue
	// KindSchedDefer marks a request the scheduler considered but did not
	// start: Class names the reason ("deadline", "capacity-floor",
	// "budget", "saturated"), Level/Fill carry the request's detector
	// state, and Attempt the number of times it has now been deferred.
	KindSchedDefer
	// KindSchedCoalesce marks a duplicate request merged into an already
	// queued one (Class "duplicate") or a starved request escalated to the
	// front of a saturated queue (Class "starved"): Level/Fill are the
	// merged detector state, Attempt the total requests coalesced into the
	// entry, Value the entry's refreshed urgency.
	KindSchedCoalesce
	// KindSchedStart marks a rejuvenation action dispatched by the
	// scheduler: Class names the Kijima tier ("minor", "medium", "major"),
	// Value the rollback fraction ρ, and Backoff the pause (seconds) the
	// action will hold the replica down.
	KindSchedStart
	// KindSchedComplete marks a dispatched action finishing: OK reports
	// whether the replica returned to service (false re-enters the queue).
	KindSchedComplete
	// KindSchedQuarantine marks a replica quarantined after its actuator
	// gave up: Class carries the terminal error text. The replica's
	// capacity share is shed from the scheduler's budget accounting.
	KindSchedQuarantine
	// KindSchedReadmit marks a quarantined replica re-admitted to
	// scheduling after recovery.
	KindSchedReadmit
)

// kindNames maps kinds to their stable JSONL spellings.
var kindNames = [...]string{
	KindRepStart:        "rep_start",
	KindObserve:         "observe",
	KindDecision:        "decision",
	KindReset:           "reset",
	KindRejuvenation:    "rejuvenation",
	KindGCStart:         "gc_start",
	KindGCEnd:           "gc_end",
	KindSimScheduled:    "sim_scheduled",
	KindSimFired:        "sim_fired",
	KindSimCancelled:    "sim_cancelled",
	KindFault:           "fault",
	KindActStart:        "act_start",
	KindActAttempt:      "act_attempt",
	KindActGiveUp:       "act_give_up",
	KindStreamOpen:      "stream_open",
	KindStreamClose:     "stream_close",
	KindRebaseline:      "rebaseline",
	KindSchedEnqueue:    "sched_enqueue",
	KindSchedDefer:      "sched_defer",
	KindSchedCoalesce:   "sched_coalesce",
	KindSchedStart:      "sched_start",
	KindSchedComplete:   "sched_complete",
	KindSchedQuarantine: "sched_quarantine",
	KindSchedReadmit:    "sched_readmit",
}

// maxKind is the highest valid kind; the decoder rejects anything above.
const maxKind = KindSchedReadmit

// Valid reports whether k is a known record kind. Retired kind numbers
// have no name and are invalid.
func (k Kind) Valid() bool { return k >= KindRepStart && k <= maxKind && kindNames[k] != "" }

// String returns the stable name of the kind ("observe", "decision", ...).
func (k Kind) String() string {
	if k.Valid() {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", byte(k))
}

// MarshalJSON renders the kind by name, keeping JSONL journals readable.
func (k Kind) MarshalJSON() ([]byte, error) {
	if !k.Valid() {
		return nil, fmt.Errorf("journal: cannot marshal invalid kind %d", byte(k))
	}
	return json.Marshal(k.String())
}

// UnmarshalJSON parses the name form written by MarshalJSON.
func (k *Kind) UnmarshalJSON(data []byte) error {
	var name string
	if err := json.Unmarshal(data, &name); err != nil {
		return err
	}
	for kk := KindRepStart; kk <= maxKind; kk++ {
		if kk.Valid() && kindNames[kk] == name {
			*k = kk
			return nil
		}
	}
	return fmt.Errorf("journal: unknown record kind %q", name)
}

// Meta is the journal header: everything needed to interpret and replay
// the records that follow. The writer serializes it as JSON in both
// codecs (the header is written once, so readability beats compactness).
type Meta struct {
	// CreatedBy names the producing tool ("rejuvsim", "httpserver", ...).
	CreatedBy string `json:"created_by,omitempty"`
	// Detector is the human-readable detector label, e.g.
	// "SRAA (n=2, K=5, D=3)".
	Detector string `json:"detector,omitempty"`
	// Spec is an opaque, tool-defined detector specification that lets
	// replay reconstruct the detector; cmd/rejuvsim stores the JSON
	// encoding of its experiment.Spec here.
	Spec string `json:"spec,omitempty"`
	// Seed is the base random seed of the run.
	Seed uint64 `json:"seed,omitempty"`
	// Notes carries free-form key=value annotations (load, txns, ...).
	Notes string `json:"notes,omitempty"`
}

// Record is one journal entry. It is the union of all payloads; Kind
// selects which fields are meaningful. Seq is assigned by the writer and
// strictly increases within a journal; Time is the virtual (or, for
// production monitors, monotonic wall-clock) timestamp in seconds.
type Record struct {
	// Kind selects the payload.
	Kind Kind `json:"kind"`
	// Seq is the journal-wide sequence number, starting at 0.
	Seq uint64 `json:"seq"`
	// Time is the timestamp in seconds.
	Time float64 `json:"t"`

	// Rep is the 1-based replication number (KindRepStart).
	Rep int `json:"rep,omitempty"`
	// Seed is the replication's random seed (KindRepStart).
	Seed uint64 `json:"seed,omitempty"`
	// Stream is the replication's random stream (KindRepStart), the
	// detector stream id (KindObserve, KindDecision, KindRebaseline,
	// KindFault, KindStreamOpen, KindStreamClose; 0 is the
	// single-detector stream, and the stream of a fault not tied to one)
	// or the scheduler replica id (the KindSched* kinds). The binary
	// codec writes a fault record's stream as an optional trailing
	// field, only when non-zero.
	Stream uint64 `json:"stream,omitempty"`

	// Value is the observed metric (KindObserve).
	Value float64 `json:"value,omitempty"`

	// Evaluated, Triggered and Suppressed mirror the decision flags
	// (KindDecision). Suppressed is set by the cooldown layer, not the
	// detector, and is excluded from replay byte comparison.
	Evaluated  bool `json:"evaluated,omitempty"`
	Triggered  bool `json:"triggered,omitempty"`
	Suppressed bool `json:"suppressed,omitempty"`
	// SampleMean, Target, Level, Fill, SampleSize, SampleFill and
	// Statistic capture the decision and the detector internals after
	// the step (KindDecision).
	SampleMean float64 `json:"sample_mean,omitempty"`
	Target     float64 `json:"target,omitempty"`
	Level      int     `json:"level,omitempty"`
	Fill       int     `json:"fill,omitempty"`
	SampleSize int     `json:"sample_size,omitempty"`
	SampleFill int     `json:"sample_fill,omitempty"`
	Statistic  float64 `json:"statistic,omitempty"`

	// Killed is the number of in-flight transactions a rejuvenation
	// terminated (KindRejuvenation).
	Killed int `json:"killed,omitempty"`

	// HeapMB is the remaining heap at a GC boundary (KindGCStart,
	// KindGCEnd).
	HeapMB float64 `json:"heap_mb,omitempty"`

	// EventTime is the virtual time a kernel event was scheduled to fire
	// at (KindSimScheduled) or the QoS deadline horizon declared with a
	// scheduler request (KindSchedEnqueue, KindSchedCoalesce).
	EventTime float64 `json:"event_time,omitempty"`

	// Class names a fault class (KindFault), a fleet detector class
	// (KindStreamOpen), a scheduler defer/coalesce reason or Kijima tier
	// (KindSchedDefer, KindSchedCoalesce, KindSchedStart) or carries an
	// error text (KindActAttempt, KindActGiveUp, KindSchedQuarantine).
	// Both codecs cap it at MaxClassLen bytes: the writer clips longer
	// strings and the binary decoder rejects them.
	Class string `json:"class,omitempty"`

	// Attempt is the 1-based attempt number (KindActAttempt), the total
	// attempts made (KindActGiveUp), the deferral count (KindSchedDefer)
	// or the coalesced request count (KindSchedCoalesce).
	Attempt int `json:"attempt,omitempty"`
	// OK is the attempt outcome (KindActAttempt, KindSchedComplete).
	OK bool `json:"ok,omitempty"`
	// Backoff is the delay in seconds scheduled before the next attempt
	// (KindActAttempt; 0 when no retry follows) or the pause a dispatched
	// rejuvenation action holds the replica down (KindSchedStart).
	Backoff float64 `json:"backoff,omitempty"`

	// BaseMean and BaseStdDev are the committed baseline of a workload-
	// shift rebaseline (KindRebaseline).
	BaseMean   float64 `json:"base_mean,omitempty"`
	BaseStdDev float64 `json:"base_sd,omitempty"`

	// TriggerID correlates a triggering decision with everything it
	// caused: the id minted at decision time (core.TriggerID) appears on
	// the KindDecision record that fired and on every KindActStart/
	// KindActAttempt/KindActGiveUp record of the actuation it provoked.
	// 0 means "no trigger id" — a non-triggering decision, an actuation
	// started outside a trigger, or a record written before ids existed.
	// The binary codec appends it as an optional trailing field only
	// when non-zero, so journals without ids decode unchanged and replay
	// byte comparison (which covers the decision fields only) is
	// unaffected.
	TriggerID uint64 `json:"trigger_id,omitempty"`
}

// magic identifies a binary journal stream; the version byte follows it.
var magic = [4]byte{'R', 'J', 'N', 'L'}

// Version is the binary codec version written after the magic. Version
// 2 tags every observe, decision and rebaseline record with its stream
// id; the reader speaks only the current version.
const Version = 2

// MaxRecordLen bounds one binary record, protecting readers against
// corrupt or hostile length prefixes.
const MaxRecordLen = 1 << 20

// MaxMetaLen bounds the serialized header, for the same reason.
const MaxMetaLen = 1 << 20

// MaxClassLen bounds the Class string of a record; writers truncate and
// the binary decoder rejects anything longer.
const MaxClassLen = 256
