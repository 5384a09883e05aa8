package journal

import (
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime/pprof"

	"rejuv/internal/core"
	"rejuv/internal/streamindex"
)

// sameF64Bits compares two floats bitwise, the equality the replay
// verifier uses everywhere: NaN payloads and signed zeros must survive
// the journal round trip exactly.
func sameF64Bits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

// This file implements deterministic replay: feeding the journaled
// observations of every stream through a freshly constructed detector
// must reproduce that stream's journaled decisions byte for byte.
// Because every detector is a deterministic state machine (core package
// contract), any divergence means the journal, the detector
// construction, or the platform broke the determinism guarantee — which
// makes Replay the strongest determinism test in the repository. For a
// fleet journal, where many streams interleave, it checks the fleet
// engine's shell — hygiene, cooldown, shift layering and journaling —
// against the pointer-based reference detectors in internal/core; both
// step the same detector kernel.

// ReplayReport summarizes one replay verification pass.
type ReplayReport struct {
	// Reps counts replications encountered (KindRepStart records; one
	// implicit replication when a journal has none).
	Reps int
	// Streams counts streams opened by KindStreamOpen records (the
	// single-detector stream 0 opens implicitly and is not counted).
	Streams int
	// Closes counts stream close records applied.
	Closes int
	// Observations counts observation records fed to detectors.
	Observations int
	// Decisions counts decision records compared.
	Decisions int
	// Triggers counts recorded decisions that triggered.
	Triggers int
	// Resets counts externally initiated detector resets applied.
	Resets int
	// Rebaselines counts workload-shift rebaseline records verified.
	Rebaselines int
	// Mismatch describes the first divergence, nil when every stream's
	// decision sequence is byte-identical.
	Mismatch *Mismatch
}

// Identical reports whether the replayed decision stream matched the
// recorded one byte for byte.
func (r ReplayReport) Identical() bool { return r.Mismatch == nil }

// Mismatch pinpoints the first divergence between the recorded and
// replayed decision streams.
type Mismatch struct {
	// Seq is the sequence number of the recorded record at the
	// divergence point.
	Seq uint64
	// Time is its timestamp.
	Time float64
	// Reason classifies the divergence.
	Reason string
	// Recorded and Replayed are the hex encodings of the canonical
	// decision payloads that differed (empty for structural mismatches
	// such as a missing decision record).
	Recorded, Replayed string
}

// Error renders the mismatch as a one-line diagnosis.
func (m *Mismatch) Error() string {
	s := fmt.Sprintf("journal: replay diverged at seq %d (t=%.6g): %s", m.Seq, m.Time, m.Reason)
	if m.Recorded != "" || m.Replayed != "" {
		s += fmt.Sprintf(" (recorded %s, replayed %s)", m.Recorded, m.Replayed)
	}
	return s
}

// Replay feeds every journaled observation through detectors built by
// factory and verifies each stream's decision records against the
// replayed ones. Streams follow these rules:
//
//   - KindStreamOpen builds the stream's detector with factory(class).
//   - Stream 0, the single-detector stream, opens lazily with
//     factory("") on its first record, so single-stream journals need
//     no open record.
//   - KindRepStart drops every stream (a replication starts from fresh
//     detectors); KindReset resets every open stream.
//   - Records on any other unopened stream, a stream opened twice, and
//     a stream closed or a replication started while a replayed decision
//     awaits its recorded counterpart are structural mismatches.
//
// The comparison is byte-level: every field of the canonical binary
// decision layout (appendDecision) must match, floats bitwise, which is
// the same as comparing the two encodings. Suppression is masked,
// because it is decided by the cooldown layer above the detector and
// is not reproducible from the observation stream alone; every
// detector-owned field must match.
// Records of other kinds are ignored, so a journal may carry GC,
// kernel, actuator and scheduler records alongside.
//
// Replay stops at the first divergence and reports it; a nil error with
// report.Identical() true is the determinism proof.
func Replay(jr *Reader, factory func(class string) (core.Detector, error)) (ReplayReport, error) {
	v := verifier{factory: factory, index: streamindex.New()}
	var err error
	// Label the replay loop so CPU profiles attribute detector
	// evaluation time to this phase.
	pprof.Do(context.Background(), pprof.Labels("rejuv_phase", "detector-replay"), func(context.Context) {
		err = v.run(jr)
	})
	return v.report, err
}

// replayStream is the replay state of one stream, held by value in the
// verifier's slot table; a slot with a nil det is free.
type replayStream struct {
	id  uint64
	det core.Detector
	// instr is det's core.Instrumented view, asserted once at open; nil
	// when the detector exposes no internals.
	instr core.Instrumented
	// d holds, while waiting is set, the replayed decision awaiting its
	// recorded counterpart, and sampleSize, sampleFill and statistic the
	// internals its payload carries (appendDecision); decision records
	// always follow their observation in writer order.
	d                      core.Decision
	sampleSize, sampleFill int
	statistic              float64
	waiting                bool
}

// internals returns the pending decision's payload internals.
func (st *replayStream) internals() core.Internals {
	return core.Internals{SampleSize: st.sampleSize, SampleFill: st.sampleFill, Statistic: st.statistic}
}

// streamPage is the number of stream slots per page of the verifier's
// slot table.
const streamPage = 64

// verifier is the state of one Replay pass. Stream 0 has a state of its
// own, zero, because the index reserves id 0 for its empty entries.
// Every other open stream has a slot from index, and its state lives by
// value in pages of streamPage slots: a page never moves, so a
// *replayStream stays valid and a growing table leaves no outgrown
// copies behind. Slots below next have been handed out, and the slots
// of closed streams are recycled through free. recBuf and repBuf are
// the reused encodings of a differing recorded and replayed decision
// payload.
type verifier struct {
	factory        func(class string) (core.Detector, error)
	zero           replayStream
	index          streamindex.Index
	pages          []*[streamPage]replayStream
	next           int32
	free           []int32
	report         ReplayReport
	recBuf, repBuf []byte
}

// run drives the pass until EOF, a decode error or the first mismatch.
// Every record is decoded into the one reused rec and handed on by
// pointer.
func (v *verifier) run(jr *Reader) error {
	v.report.Reps = 1
	sawRepStart := false
	rec := new(Record)
	for v.report.Mismatch == nil {
		if err := jr.next(rec); err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			return err
		}
		switch rec.Kind {
		case KindRepStart:
			if id, ok := v.waitingStream(); ok {
				v.mismatch(rec, "replication started while a replayed decision awaited its recorded counterpart"+onStream(id))
				break
			}
			if sawRepStart || v.report.Observations > 0 || v.report.Decisions > 0 {
				v.report.Reps++
			}
			sawRepStart = true
			v.closeAll()
		case KindStreamOpen:
			if v.lookup(rec.Stream) != nil {
				v.mismatch(rec, fmt.Sprintf("stream %d opened twice", rec.Stream))
				break
			}
			if _, err := v.open(rec.Stream, rec.Class); err != nil {
				return err
			}
			v.report.Streams++
		case KindStreamClose:
			st := v.lookup(rec.Stream)
			switch {
			case st == nil:
				v.mismatch(rec, fmt.Sprintf("stream %d closed but never opened", rec.Stream))
			case st.waiting:
				v.mismatch(rec, fmt.Sprintf("stream %d closed while a replayed decision awaited its recorded counterpart", rec.Stream))
			default:
				v.close(rec.Stream)
				v.report.Closes++
			}
		case KindObserve:
			st, err := v.stream(rec, "observation")
			if st == nil {
				return err
			}
			if st.waiting {
				v.mismatch(rec, "observation arrived while a replayed decision awaited its recorded counterpart"+onStream(rec.Stream))
				break
			}
			v.report.Observations++
			if d := st.det.Observe(rec.Value); d.Evaluated || d.Triggered {
				var in core.Internals
				if st.instr != nil {
					in = st.instr.Internals()
				}
				st.d, st.waiting = d, true
				st.sampleSize, st.sampleFill, st.statistic = in.SampleSize, in.SampleFill, in.Statistic
			}
		case KindDecision:
			st, err := v.stream(rec, "decision")
			if st == nil {
				return err
			}
			v.report.Decisions++
			if rec.Triggered {
				v.report.Triggers++
			}
			v.compare(st, rec)
		case KindReset:
			v.report.Resets++
			v.each(func(st *replayStream) { st.det.Reset() })
		case KindRebaseline:
			st, err := v.stream(rec, "rebaseline")
			if st == nil {
				return err
			}
			v.report.Rebaselines++
			if m := verifyRebaseline(rec, st.det); m != nil {
				m.Reason += onStream(rec.Stream)
				v.report.Mismatch = m
			}
		}
	}
	if v.report.Mismatch != nil {
		return nil
	}
	if id, ok := v.waitingStream(); ok {
		v.report.Mismatch = &Mismatch{Reason: "replayed decision at end of journal has no recorded counterpart" + onStream(id)}
	}
	return nil
}

// slot returns the state in slot i.
func (v *verifier) slot(i int32) *replayStream {
	return &v.pages[i/streamPage][i%streamPage]
}

// each calls f on every open stream: stream 0, then the pages in slot
// order.
func (v *verifier) each(f func(*replayStream)) {
	if v.zero.det != nil {
		f(&v.zero)
	}
	for _, pg := range v.pages {
		for i := range pg {
			if st := &pg[i]; st.det != nil {
				f(st)
			}
		}
	}
}

// lookup returns the open stream id, or nil when it is not open.
func (v *verifier) lookup(id uint64) *replayStream {
	if id == 0 {
		if v.zero.det != nil {
			return &v.zero
		}
		return nil
	}
	if i := v.index.Lookup(id, streamindex.Mix(id)); i >= 0 {
		return v.slot(i)
	}
	return nil
}

// open builds the detector of one stream and gives the stream a slot.
func (v *verifier) open(id uint64, class string) (*replayStream, error) {
	det, err := v.factory(class)
	if err != nil {
		return nil, fmt.Errorf("journal: replay factory (stream %d, class %q): %w", id, class, err)
	}
	if det == nil {
		return nil, fmt.Errorf("journal: replay factory returned a nil detector for stream %d (class %q)", id, class)
	}
	st := &v.zero
	if id != 0 {
		var i int32
		if n := len(v.free); n > 0 {
			i, v.free = v.free[n-1], v.free[:n-1]
		} else {
			if int(v.next/streamPage) == len(v.pages) {
				v.pages = append(v.pages, new([streamPage]replayStream))
			}
			i = v.next
			v.next++
		}
		v.index.Insert(id, streamindex.Mix(id), i)
		st = v.slot(i)
	}
	instr, _ := det.(core.Instrumented)
	*st = replayStream{id: id, det: det, instr: instr}
	return st, nil
}

// close drops the open stream id and recycles its slot.
func (v *verifier) close(id uint64) {
	if id == 0 {
		v.zero = replayStream{}
		return
	}
	i := v.index.Remove(id, streamindex.Mix(id))
	*v.slot(i) = replayStream{}
	v.free = append(v.free, i)
}

// closeAll drops every stream, as a replication start does, and hands
// the slots out again from the first page.
func (v *verifier) closeAll() {
	v.each(func(st *replayStream) {
		if st.id != 0 {
			v.index.Remove(st.id, streamindex.Mix(st.id))
		}
		*st = replayStream{}
	})
	v.next, v.free = 0, v.free[:0]
}

// stream returns the open stream rec belongs to, opening stream 0 on
// its first record. A nil stream with a nil error means rec addressed
// an unopened stream and the mismatch is recorded.
func (v *verifier) stream(rec *Record, what string) (*replayStream, error) {
	if st := v.lookup(rec.Stream); st != nil {
		return st, nil
	}
	if rec.Stream == 0 {
		return v.open(0, "")
	}
	v.mismatch(rec, fmt.Sprintf("%s on unopened stream %d", what, rec.Stream))
	return nil, nil
}

// compare checks a recorded decision against the stream's pending
// replayed one.
func (v *verifier) compare(st *replayStream, rec *Record) {
	if !st.waiting {
		v.mismatch(rec, "recorded decision has no replayed counterpart (replayed detector did not evaluate)"+onStream(rec.Stream))
		return
	}
	st.waiting = false
	d, in := recordDecision(rec)
	if sameDecision(d, in, st.d, st.internals()) {
		return
	}
	// Suppression belongs to the cooldown layer, not the detector;
	// encode both sides with the recorded flag so the report shows
	// exactly the detector-owned fields that differ.
	var rep Record
	rep.setDecision(st.d, st.internals(), rec.Suppressed)
	v.recBuf = appendDecision(v.recBuf[:0], rec)
	v.repBuf = appendDecision(v.repBuf[:0], &rep)
	v.report.Mismatch = &Mismatch{
		Seq:      rec.Seq,
		Time:     rec.Time,
		Reason:   "decision payloads differ" + onStream(rec.Stream),
		Recorded: hex.EncodeToString(v.recBuf),
		Replayed: hex.EncodeToString(v.repBuf),
	}
}

// sameDecision reports whether two decisions encode to the same
// canonical payload (appendDecision) under one suppression flag: it
// compares every field that payload carries, floats bitwise. The
// encoding is injective on these fields — the ints travel as
// uint64(int) varints — so this equals comparing the encoded bytes.
func sameDecision(d1 core.Decision, in1 core.Internals, d2 core.Decision, in2 core.Internals) bool {
	return d1.Evaluated == d2.Evaluated && d1.Triggered == d2.Triggered &&
		sameF64Bits(d1.SampleMean, d2.SampleMean) && sameF64Bits(d1.Target, d2.Target) &&
		d1.Level == d2.Level && d1.Fill == d2.Fill &&
		in1.SampleSize == in2.SampleSize && in1.SampleFill == in2.SampleFill &&
		sameF64Bits(in1.Statistic, in2.Statistic)
}

// waitingStream returns the lowest id of a stream whose replayed
// decision awaits its recorded counterpart, so the diagnosis does not
// depend on slot order.
func (v *verifier) waitingStream() (uint64, bool) {
	id, found := uint64(0), false
	v.each(func(st *replayStream) {
		if st.waiting && (!found || st.id < id) {
			id, found = st.id, true
		}
	})
	return id, found
}

// mismatch records a structural divergence at rec.
func (v *verifier) mismatch(rec *Record, reason string) {
	v.report.Mismatch = structuralMismatch(rec, reason)
}

// onStream names a fleet stream in a mismatch reason; the
// single-detector stream 0 needs no qualifier.
func onStream(id uint64) string {
	if id == 0 {
		return ""
	}
	return fmt.Sprintf(" on stream %d", id)
}

// structuralMismatch builds a mismatch for stream-shape divergences.
func structuralMismatch(rec *Record, reason string) *Mismatch {
	return &Mismatch{Seq: rec.Seq, Time: rec.Time, Reason: reason}
}

// verifyRebaseline checks a recorded rebaseline event against the
// replayed detector: it must re-estimate its baseline online
// (core.Rebaseliner) and its committed baseline must match the recorded
// one bitwise — the shift layer is deterministic, so any drift in the
// re-estimated moments is a determinism break.
func verifyRebaseline(rec *Record, det core.Detector) *Mismatch {
	rb, ok := det.(core.Rebaseliner)
	if !ok {
		return structuralMismatch(rec, "recorded rebaseline but the replay detector does not re-estimate its baseline")
	}
	got := rb.CurrentBaseline()
	if !sameF64Bits(got.Mean, rec.BaseMean) || !sameF64Bits(got.StdDev, rec.BaseStdDev) {
		return &Mismatch{
			Seq:      rec.Seq,
			Time:     rec.Time,
			Reason:   "rebaselined baselines differ",
			Recorded: fmt.Sprintf("(%v, %v)", rec.BaseMean, rec.BaseStdDev),
			Replayed: fmt.Sprintf("(%v, %v)", got.Mean, got.StdDev),
		}
	}
	return nil
}
