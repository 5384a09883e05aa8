package journal

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/bits"

	"rejuv/internal/core"
)

// Writer appends records to an underlying io.Writer in one of the two
// codecs. The binary encode path performs no allocations per record and
// hands each record, length prefix included, to the underlying writer
// in exactly one Write call, so journaling can be left on in
// benchmarked paths. Errors are sticky: the first failed
// write latches into Err and subsequent records are dropped, because a
// flight recorder must never turn an I/O failure into a simulation
// failure.
//
// Writers are not safe for concurrent use; the Monitor serializes its
// records under the monitor lock, and the simulators are single-
// threaded by construction.
type Writer struct {
	w      io.Writer
	format Format
	seq    uint64
	err    error

	buf    []byte              // reused binary record scratch
	counts [maxKind + 1]uint64 // records written per kind
	enc    *json.Encoder       // JSONL codec only
}

// NewWriter returns a binary-codec writer and immediately writes the
// header (magic, version, meta). The caller owns w and any buffering:
// wrap files in a bufio.Writer and flush it after the run.
func NewWriter(w io.Writer, meta Meta) *Writer {
	jw := &Writer{w: w, format: FormatBinary, buf: make([]byte, 0, 128)}
	jw.writeHeader(meta)
	return jw
}

// NewJSONWriter returns a JSON-lines-codec writer (the debug format) and
// immediately writes the meta header line.
func NewJSONWriter(w io.Writer, meta Meta) *Writer {
	jw := &Writer{w: w, format: FormatJSONL, enc: json.NewEncoder(w)}
	jw.err = jw.enc.Encode(meta)
	return jw
}

// writeHeader emits the binary header: magic, version byte, uvarint
// meta length, meta JSON.
func (jw *Writer) writeHeader(meta Meta) {
	data, err := json.Marshal(meta)
	if err != nil {
		jw.err = fmt.Errorf("journal: encoding meta: %w", err)
		return
	}
	b := jw.buf[:0]
	b = append(b, magic[:]...)
	b = append(b, Version)
	b = binary.AppendUvarint(b, uint64(len(data)))
	b = append(b, data...)
	jw.write(b)
	jw.buf = b[:0]
}

// Err returns the first write or encoding error, or nil.
func (jw *Writer) Err() error { return jw.err }

// Seq returns the sequence number the next record will carry.
func (jw *Writer) Seq() uint64 { return jw.seq }

// Count returns how many records of the given kind have been written.
func (jw *Writer) Count(k Kind) uint64 {
	if !k.Valid() {
		return 0
	}
	return jw.counts[k]
}

// Record appends one fully populated record. The record's Seq is
// overwritten with the writer's running sequence number and a Class
// longer than MaxClassLen is clipped, as for every emitter. The typed
// emitters below serve the per-observation and simulator paths;
// Record writes the rarer kinds (the scheduler's, via SchedRecord) and
// lets analysis tooling rewrite journals.
func (jw *Writer) Record(r Record) { jw.emit(&r) }

// RepStart marks the beginning of replication rep with its seed/stream.
func (jw *Writer) RepStart(t float64, rep int, seed, stream uint64) {
	r := Record{Kind: KindRepStart, Time: t, Rep: rep, Seed: seed, Stream: stream}
	jw.emit(&r)
}

// Observe records one observation of the monitored metric on a
// stream (0 for a single-detector journal). The detector paths journal
// their observations through Step; Observe serves callers that write
// the record group by hand, such as journal fixtures. It stays
// allocation-free on the binary codec, like every emitter.
//
//lint:hotpath
func (jw *Writer) Observe(t float64, stream uint64, value float64) {
	r := Record{Kind: KindObserve, Time: t, Stream: stream, Value: value}
	jw.emit(&r)
}

// Decision records one evaluated detector decision on a stream (0 for
// a single-detector journal) together with the internals snapshot taken
// immediately after the step. triggerID is the deterministic trigger
// identity minted for a triggering decision (core.TriggerID); pass 0
// for non-triggering decisions. Like Observe, it is the hand-written
// form of what Step journals for the detector paths.
//
//lint:hotpath
func (jw *Writer) Decision(t float64, stream uint64, d core.Decision, in core.Internals, suppressed bool, triggerID uint64) {
	r := Record{Kind: KindDecision, Time: t, Stream: stream, TriggerID: triggerID}
	r.SetDecision(d, in, suppressed)
	jw.emit(&r)
}

// Reset records an externally initiated detector reset.
func (jw *Writer) Reset(t float64) {
	r := Record{Kind: KindReset, Time: t}
	jw.emit(&r)
}

// Rejuvenation records the control action: the system was rejuvenated,
// killing the given number of in-flight transactions.
func (jw *Writer) Rejuvenation(t float64, killed int) {
	r := Record{Kind: KindRejuvenation, Time: t, Killed: killed}
	jw.emit(&r)
}

// GCStart records the onset of a full GC stall at the given heap level.
func (jw *Writer) GCStart(t, heapMB float64) {
	r := Record{Kind: KindGCStart, Time: t, HeapMB: heapMB}
	jw.emit(&r)
}

// GCEnd records the end of a full GC stall at the given heap level.
func (jw *Writer) GCEnd(t, heapMB float64) {
	r := Record{Kind: KindGCEnd, Time: t, HeapMB: heapMB}
	jw.emit(&r)
}

// SimScheduled records a kernel event pushed onto the queue, scheduled
// to fire at virtual time at.
func (jw *Writer) SimScheduled(t, at float64) {
	r := Record{Kind: KindSimScheduled, Time: t, EventTime: at}
	jw.emit(&r)
}

// SimFired records a kernel event whose handler ran.
func (jw *Writer) SimFired(t float64) {
	r := Record{Kind: KindSimFired, Time: t}
	jw.emit(&r)
}

// SimCancelled records a kernel event removed before firing.
func (jw *Writer) SimCancelled(t float64) {
	r := Record{Kind: KindSimCancelled, Time: t}
	jw.emit(&r)
}

// Fault records one telemetry fault: an injected corruption, a value
// rejected by hygiene, a detected probe stall. class names the fault
// (truncated to MaxClassLen) and value carries the observation involved
// (NaN when no value applies, e.g. a stall).
func (jw *Writer) Fault(t float64, class string, value float64) {
	r := Record{Kind: KindFault, Time: t, Class: class, Value: value}
	jw.emit(&r)
}

// ActStart records the start of one rejuvenation action execution.
// triggerID carries the identity of the trigger that provoked it, or 0
// for executions started outside a trigger.
func (jw *Writer) ActStart(t float64, triggerID uint64) {
	r := Record{Kind: KindActStart, Time: t, TriggerID: triggerID}
	jw.emit(&r)
}

// ActAttempt records one attempt of a rejuvenation action: its 1-based
// number, outcome, the backoff (seconds) scheduled before the next
// attempt (0 when none follows), the error text on failure, and the
// trigger id the execution belongs to (0 when none).
func (jw *Writer) ActAttempt(t float64, attempt int, ok bool, backoff float64, errText string, triggerID uint64) {
	r := Record{Kind: KindActAttempt, Time: t, Attempt: attempt, OK: ok, Backoff: backoff, Class: errText, TriggerID: triggerID}
	jw.emit(&r)
}

// ActGiveUp records the terminal escalation: the action failed for good
// after the given total number of attempts, with the last error text
// and the trigger id the execution belongs to (0 when none).
func (jw *Writer) ActGiveUp(t float64, attempts int, errText string, triggerID uint64) {
	r := Record{Kind: KindActGiveUp, Time: t, Attempt: attempts, Class: errText, TriggerID: triggerID}
	jw.emit(&r)
}

// StreamOpen records a fleet stream coming under monitoring with the
// named detector class.
func (jw *Writer) StreamOpen(t float64, stream uint64, class string) {
	r := Record{Kind: KindStreamOpen, Time: t, Stream: stream, Class: class}
	jw.emit(&r)
}

// StreamClose records a fleet stream leaving monitoring.
func (jw *Writer) StreamClose(t float64, stream uint64) {
	r := Record{Kind: KindStreamClose, Time: t, Stream: stream}
	jw.emit(&r)
}

// Rebaseline records a committed workload-shift rebaseline on a stream
// (0 for a single-detector journal): the shift layer re-estimated the
// baseline and the wrapped detector restarted at mean/sd. Like
// Observe, it is the hand-written form of what Step journals for the
// detector paths.
//
//lint:hotpath
func (jw *Writer) Rebaseline(t float64, stream uint64, mean, sd float64) {
	r := Record{Kind: KindRebaseline, Time: t, Stream: stream, BaseMean: mean, BaseStdDev: sd}
	jw.emit(&r)
}

// Step records one detector step on a stream (0 for a single-detector
// journal) as the record group Replay reads: a fault record when the
// hygiene policy intercepted the raw observation, the observe record of
// the admitted value (the substitute, under HygieneClamp), the
// rebaseline record of a committed baseline, and the decision record of
// an evaluated or triggering decision with the internals snapshot taken
// after the step. suppressed and triggerID are as for Decision. It is
// the one per-observation emitter: the Monitor, the simulation model
// and the conformance laws journal each core.Feed step through it, and
// the fleet each drained item. The fault record carries the stream and
// a placeholder value 0: its class names the poison, and the JSONL
// codec cannot carry the non-finite original.
//
//lint:hotpath
func (jw *Writer) Step(t float64, stream uint64, raw float64, s *core.Step, in core.Internals, suppressed bool, triggerID uint64) {
	if s.Intercepted {
		f := Record{Kind: KindFault, Time: t, Stream: stream, Class: nonFiniteClass(raw)}
		jw.emit(&f)
	}
	if !s.Admitted {
		return
	}
	// One record serves the observe and the decision record, saving a
	// second zeroing of the large Record: emit rewrites only Seq, and
	// the decision sets every field the observe record set but Value.
	r := Record{Kind: KindObserve, Time: t, Stream: stream, Value: s.Value}
	jw.emit(&r)
	if s.Rebased {
		jw.Rebaseline(t, stream, s.Baseline.Mean, s.Baseline.StdDev)
	}
	if s.Decision.Evaluated || s.Decision.Triggered {
		r.Kind, r.Value, r.TriggerID = KindDecision, 0, triggerID
		r.SetDecision(s.Decision, in, suppressed)
		jw.emit(&r)
	}
}

// nonFiniteClass names the fault class of a non-finite observation.
func nonFiniteClass(x float64) string {
	switch {
	case math.IsNaN(x):
		return "nan"
	case math.IsInf(x, 1):
		return "+inf"
	default:
		return "-inf"
	}
}

// Injected records a fault that a fault injector put into an
// observation stream. class names the fault; a non-finite value is
// journaled as 0, since the class already names the poison and the
// JSONL codec cannot carry it.
func (jw *Writer) Injected(t float64, class string, value float64) {
	if math.IsNaN(value) || math.IsInf(value, 0) {
		value = 0
	}
	jw.Fault(t, class, value)
}

// emit is the one write path of every record: it drops the record once
// an error has latched or when its kind is invalid, clips Class to
// MaxClassLen, stamps Seq, counts the kind and encodes r in the
// writer's codec. The emitters pass a pointer to their local record
// so the binary path never copies it; r does not escape.
func (jw *Writer) emit(r *Record) {
	if jw.err != nil || !r.Kind.Valid() {
		return
	}
	if len(r.Class) > MaxClassLen {
		r.Class = r.Class[:MaxClassLen]
	}
	r.Seq = jw.seq
	jw.seq++
	jw.counts[r.Kind]++
	if jw.format == FormatJSONL {
		jw.jsonl(r)
		return
	}
	b := jw.begin(r.Kind, r.Seq, r.Time)
	b = appendPayload(b, r)
	jw.finish(b)
}

// jsonl encodes r on the JSONL debug codec. Encoding boxes a copy of
// the record and allocates; that is the price of the debug codec, paid
// in exactly one place and never on the binary path.
//
//lint:allow hotpath the JSONL debug codec boxes one record per line by design
func (jw *Writer) jsonl(r *Record) {
	jw.err = jw.enc.Encode(*r)
}

// prefixRoom is the headroom begin reserves at the head of the scratch
// buffer for the record's length prefix, so finish can emit prefix and
// payload as one contiguous Write.
const prefixRoom = binary.MaxVarintLen64

// begin starts a binary record in the reused scratch buffer: prefixRoom
// bytes of headroom, then the kind byte, uvarint seq and float64 time.
//
//lint:allow hotpath appends into the reused scratch buffer; growth amortizes to zero (pinned by TestWriterEmittersDoNotAllocate)
func (jw *Writer) begin(kind Kind, seq uint64, t float64) []byte {
	b := jw.buf[:prefixRoom]
	b = append(b, byte(kind))
	b = binary.AppendUvarint(b, seq)
	b = appendF64(b, t)
	return b
}

// finish writes the record begun by begin in a single Write: the
// uvarint length prefix is encoded straight into the headroom,
// right-aligned against the payload (a uvarint carries 7 bits per
// byte). The (possibly grown) scratch buffer is kept for the next
// record.
func (jw *Writer) finish(b []byte) {
	n := uint64(len(b) - prefixRoom)
	start := prefixRoom - (bits.Len64(n|1)+6)/7
	binary.PutUvarint(b[start:], n)
	jw.write(b[start:])
	jw.buf = b[:0]
}

// write forwards to the underlying writer unless an error has latched.
func (jw *Writer) write(p []byte) {
	if jw.err != nil {
		return
	}
	_, jw.err = jw.w.Write(p)
}

// SetDecision fills r's decision fields from one evaluated decision
// and the internals snapshot taken after it, in place: the record is
// too large to copy on the per-observation paths. recordDecision
// splits a record back into the decision and internals.
func (r *Record) SetDecision(d core.Decision, in core.Internals, suppressed bool) {
	r.Evaluated, r.Triggered, r.Suppressed = d.Evaluated, d.Triggered, suppressed
	r.SampleMean, r.Target, r.Level, r.Fill = d.SampleMean, d.Target, d.Level, d.Fill
	r.SampleSize, r.SampleFill, r.Statistic = in.SampleSize, in.SampleFill, in.Statistic
}

// Decision flag bits of the binary codec.
const (
	flagEvaluated  = 1 << 0
	flagTriggered  = 1 << 1
	flagSuppressed = 1 << 2
)

// recordDecision splits a decision record into the detector decision
// and internals it was written from, the arguments of SetDecision.
// Only the fields the decision payload carries are set.
func recordDecision(r *Record) (core.Decision, core.Internals) {
	return core.Decision{
			Evaluated:  r.Evaluated,
			Triggered:  r.Triggered,
			SampleMean: r.SampleMean,
			Target:     r.Target,
			Level:      r.Level,
			Fill:       r.Fill,
		}, core.Internals{
			SampleSize: r.SampleSize,
			SampleFill: r.SampleFill,
			Statistic:  r.Statistic,
		}
}

// appendDecision is the one encoder of the decision payload (after the
// common kind/seq/time prefix and the stream id): flags byte, sample
// mean, target, level, fill, sample size, sample fill, statistic. The
// writer and the replay verifier both encode through it, and the
// verifier compares its output byte for byte, so its layout is part of
// the determinism contract (DESIGN §10).
//
//lint:allow hotpath appends into the caller's reused scratch buffer; growth amortizes to zero
func appendDecision(b []byte, r *Record) []byte {
	var flags byte
	if r.Evaluated {
		flags |= flagEvaluated
	}
	if r.Triggered {
		flags |= flagTriggered
	}
	if r.Suppressed {
		flags |= flagSuppressed
	}
	b = append(b, flags)
	b = appendF64(b, r.SampleMean)
	b = appendF64(b, r.Target)
	b = binary.AppendUvarint(b, uint64(r.Level))
	b = binary.AppendUvarint(b, uint64(r.Fill))
	b = binary.AppendUvarint(b, uint64(r.SampleSize))
	b = binary.AppendUvarint(b, uint64(r.SampleFill))
	b = appendF64(b, r.Statistic)
	return b
}

// appendPayload is the one encoder of every kind's payload; the common
// prefix (kind, seq, time) is already in b and emit has clipped Class.
//
//lint:allow hotpath appends into the caller's reused scratch buffer; growth amortizes to zero
func appendPayload(b []byte, r *Record) []byte {
	switch r.Kind {
	case KindRepStart:
		b = binary.AppendUvarint(b, uint64(r.Rep))
		b = binary.AppendUvarint(b, r.Seed)
		b = binary.AppendUvarint(b, r.Stream)
	case KindObserve:
		b = binary.AppendUvarint(b, r.Stream)
		b = appendF64(b, r.Value)
	case KindDecision:
		b = binary.AppendUvarint(b, r.Stream)
		b = appendDecision(b, r)
		b = appendTrailing(b, r.TriggerID)
	case KindReset, KindSimFired, KindSimCancelled:
		// no payload
	case KindRejuvenation:
		b = binary.AppendUvarint(b, uint64(r.Killed))
	case KindGCStart, KindGCEnd:
		b = appendF64(b, r.HeapMB)
	case KindSimScheduled:
		b = appendF64(b, r.EventTime)
	case KindFault:
		b = appendString(b, r.Class)
		b = appendF64(b, r.Value)
		b = appendTrailing(b, r.Stream)
	case KindActStart:
		b = appendTrailing(b, r.TriggerID)
	case KindActAttempt:
		if r.OK {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
		b = binary.AppendUvarint(b, uint64(r.Attempt))
		b = appendF64(b, r.Backoff)
		b = appendString(b, r.Class)
		b = appendTrailing(b, r.TriggerID)
	case KindActGiveUp:
		b = binary.AppendUvarint(b, uint64(r.Attempt))
		b = appendString(b, r.Class)
		b = appendTrailing(b, r.TriggerID)
	case KindStreamOpen:
		b = binary.AppendUvarint(b, r.Stream)
		b = appendString(b, r.Class)
	case KindStreamClose:
		b = binary.AppendUvarint(b, r.Stream)
	case KindRebaseline:
		b = binary.AppendUvarint(b, r.Stream)
		b = appendF64(b, r.BaseMean)
		b = appendF64(b, r.BaseStdDev)
	case KindSchedEnqueue:
		b = binary.AppendUvarint(b, r.Stream)
		b = binary.AppendUvarint(b, uint64(r.Level))
		b = binary.AppendUvarint(b, uint64(r.Fill))
		b = appendF64(b, r.EventTime)
		b = appendF64(b, r.Value)
		b = appendTrailing(b, r.TriggerID)
	case KindSchedDefer:
		b = binary.AppendUvarint(b, r.Stream)
		b = appendString(b, r.Class)
		b = binary.AppendUvarint(b, uint64(r.Level))
		b = binary.AppendUvarint(b, uint64(r.Fill))
		b = binary.AppendUvarint(b, uint64(r.Attempt))
		b = appendTrailing(b, r.TriggerID)
	case KindSchedCoalesce:
		b = binary.AppendUvarint(b, r.Stream)
		b = appendString(b, r.Class)
		b = binary.AppendUvarint(b, uint64(r.Level))
		b = binary.AppendUvarint(b, uint64(r.Fill))
		b = binary.AppendUvarint(b, uint64(r.Attempt))
		b = appendF64(b, r.EventTime)
		b = appendF64(b, r.Value)
		b = appendTrailing(b, r.TriggerID)
	case KindSchedStart:
		b = binary.AppendUvarint(b, r.Stream)
		b = appendString(b, r.Class)
		b = appendF64(b, r.Value)
		b = appendF64(b, r.Backoff)
		b = appendTrailing(b, r.TriggerID)
	case KindSchedComplete:
		b = binary.AppendUvarint(b, r.Stream)
		if r.OK {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
		b = appendTrailing(b, r.TriggerID)
	case KindSchedQuarantine:
		b = binary.AppendUvarint(b, r.Stream)
		b = appendString(b, r.Class)
		b = appendTrailing(b, r.TriggerID)
	case KindSchedReadmit:
		b = binary.AppendUvarint(b, r.Stream)
		b = appendTrailing(b, r.TriggerID)
	}
	return b
}

// appendTrailing appends an optional trailing field — a record's
// trigger id, or a fault record's stream id: a non-zero value is
// encoded as one trailing uvarint, zero as nothing at all, so records
// without one keep the exact byte layout journals had before the field
// existed. The decoder mirrors this (cursor.trailing): a trailing
// uvarint is read only when bytes remain after the fixed payload.
func appendTrailing(b []byte, v uint64) []byte {
	if v == 0 {
		return b
	}
	return binary.AppendUvarint(b, v)
}

// appendString appends a length-prefixed string.
//
//lint:allow hotpath appends into the caller's reused scratch buffer; growth amortizes to zero
func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// appendF64 appends the little-endian IEEE-754 bits of v.
func appendF64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}
