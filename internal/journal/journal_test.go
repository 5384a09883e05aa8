package journal

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"

	"rejuv/internal/core"
	"rejuv/internal/xrand"
)

// sampleMeta is the header used across the codec tests.
var sampleMeta = Meta{
	CreatedBy: "journal_test",
	Detector:  "SRAA (n=2, K=5, D=3)",
	Spec:      `{"Algorithm":"SRAA","N":2,"K":5,"D":3}`,
	Seed:      42,
	Notes:     "load=9",
}

// writeSample emits one record of every kind through the typed API.
func writeSample(jw *Writer) {
	jw.RepStart(0, 1, 42, 7)
	jw.SimScheduled(0, 1.5)
	jw.SimFired(1.5)
	jw.Observe(1.5, 0, 3.25)
	jw.Decision(1.5, 0,
		core.Decision{Evaluated: true, Triggered: true, SampleMean: 7.5, Target: 5, Level: 2, Fill: 0},
		core.Internals{SampleSize: 2, SampleFill: 1, Statistic: 0.25},
		true, 0xDEC1)
	jw.Reset(1.5)
	jw.Rejuvenation(1.5, 17)
	jw.GCStart(2.25, 99.5)
	jw.GCEnd(62.25, 3072)
	jw.SimCancelled(62.25)
	// The JSONL codec cannot carry non-finite values, so the shared
	// sample uses a finite one; binary non-finite round-trips are pinned
	// by TestSpecialFloatsRoundTrip.
	jw.Fault(63, "nan", 12.5)
	jw.ActStart(64, 0xDEC1)
	jw.ActAttempt(64, 1, false, 2.5, "restart rpc timed out", 0xDEC1)
	jw.ActAttempt(66.5, 2, true, 0, "", 0)
	jw.ActGiveUp(66.5, 2, "gave up anyway", 0xDEC1)
	jw.StreamOpen(70, 9001, "web-sraa")
	jw.Observe(70.5, 9001, 4.75)
	jw.Decision(70.5, 9001,
		core.Decision{Evaluated: true, SampleMean: 4.5, Target: 6, Level: 1, Fill: 2},
		core.Internals{SampleSize: 2, SampleFill: 0},
		false, 0)
	jw.StreamClose(71, 9001)
	jw.Rebaseline(72, 0, 9.25, 2.5)
	jw.Rebaseline(72.5, 9002, 9.25, 2.5)
	jw.Record(Record{Kind: KindSchedEnqueue, Time: 80, Stream: 3, Level: 4, Fill: 2, EventTime: 95.5, Value: 15, TriggerID: 0xDEC1})
	jw.Record(Record{Kind: KindSchedDefer, Time: 80.5, Stream: 3, Class: "budget", Level: 4, Fill: 2, Attempt: 1, TriggerID: 0xDEC1})
	jw.Record(Record{Kind: KindSchedCoalesce, Time: 81, Stream: 3, Class: "duplicate", Level: 5, Fill: 2, Attempt: 2, EventTime: 96, Value: 18.25, TriggerID: 0xDEC1})
	jw.Record(Record{Kind: KindSchedStart, Time: 82, Stream: 3, Class: "medium", Value: 0.5, Backoff: 30, TriggerID: 0xDEC1})
	jw.Record(Record{Kind: KindSchedComplete, Time: 112, Stream: 3, OK: true, TriggerID: 0xDEC1})
	jw.Record(Record{Kind: KindSchedQuarantine, Time: 113, Stream: 4, Class: "restart rpc unreachable", TriggerID: 0xBEEF})
	jw.Record(Record{Kind: KindSchedReadmit, Time: 120, Stream: 4})
}

// wantSample is the decoded form of writeSample, in order.
func wantSample() []Record {
	return []Record{
		{Kind: KindRepStart, Seq: 0, Rep: 1, Seed: 42, Stream: 7},
		{Kind: KindSimScheduled, Seq: 1, EventTime: 1.5},
		{Kind: KindSimFired, Seq: 2, Time: 1.5},
		{Kind: KindObserve, Seq: 3, Time: 1.5, Value: 3.25},
		{Kind: KindDecision, Seq: 4, Time: 1.5, Evaluated: true, Triggered: true, Suppressed: true,
			SampleMean: 7.5, Target: 5, Level: 2, Fill: 0, SampleSize: 2, SampleFill: 1, Statistic: 0.25,
			TriggerID: 0xDEC1},
		{Kind: KindReset, Seq: 5, Time: 1.5},
		{Kind: KindRejuvenation, Seq: 6, Time: 1.5, Killed: 17},
		{Kind: KindGCStart, Seq: 7, Time: 2.25, HeapMB: 99.5},
		{Kind: KindGCEnd, Seq: 8, Time: 62.25, HeapMB: 3072},
		{Kind: KindSimCancelled, Seq: 9, Time: 62.25},
		{Kind: KindFault, Seq: 10, Time: 63, Class: "nan", Value: 12.5},
		{Kind: KindActStart, Seq: 11, Time: 64, TriggerID: 0xDEC1},
		{Kind: KindActAttempt, Seq: 12, Time: 64, Attempt: 1, OK: false, Backoff: 2.5, Class: "restart rpc timed out", TriggerID: 0xDEC1},
		{Kind: KindActAttempt, Seq: 13, Time: 66.5, Attempt: 2, OK: true},
		{Kind: KindActGiveUp, Seq: 14, Time: 66.5, Attempt: 2, Class: "gave up anyway", TriggerID: 0xDEC1},
		{Kind: KindStreamOpen, Seq: 15, Time: 70, Stream: 9001, Class: "web-sraa"},
		{Kind: KindObserve, Seq: 16, Time: 70.5, Stream: 9001, Value: 4.75},
		{Kind: KindDecision, Seq: 17, Time: 70.5, Stream: 9001, Evaluated: true,
			SampleMean: 4.5, Target: 6, Level: 1, Fill: 2, SampleSize: 2},
		{Kind: KindStreamClose, Seq: 18, Time: 71, Stream: 9001},
		{Kind: KindRebaseline, Seq: 19, Time: 72, BaseMean: 9.25, BaseStdDev: 2.5},
		{Kind: KindRebaseline, Seq: 20, Time: 72.5, Stream: 9002, BaseMean: 9.25, BaseStdDev: 2.5},
		{Kind: KindSchedEnqueue, Seq: 21, Time: 80, Stream: 3, Level: 4, Fill: 2,
			EventTime: 95.5, Value: 15, TriggerID: 0xDEC1},
		{Kind: KindSchedDefer, Seq: 22, Time: 80.5, Stream: 3, Class: "budget",
			Level: 4, Fill: 2, Attempt: 1, TriggerID: 0xDEC1},
		{Kind: KindSchedCoalesce, Seq: 23, Time: 81, Stream: 3, Class: "duplicate",
			Level: 5, Fill: 2, Attempt: 2, EventTime: 96, Value: 18.25, TriggerID: 0xDEC1},
		{Kind: KindSchedStart, Seq: 24, Time: 82, Stream: 3, Class: "medium",
			Value: 0.5, Backoff: 30, TriggerID: 0xDEC1},
		{Kind: KindSchedComplete, Seq: 25, Time: 112, Stream: 3, OK: true, TriggerID: 0xDEC1},
		{Kind: KindSchedQuarantine, Seq: 26, Time: 113, Stream: 4,
			Class: "restart rpc unreachable", TriggerID: 0xBEEF},
		{Kind: KindSchedReadmit, Seq: 27, Time: 120, Stream: 4},
	}
}

func TestRoundTripBinary(t *testing.T) {
	var buf bytes.Buffer
	jw := NewWriter(&buf, sampleMeta)
	writeSample(jw)
	if err := jw.Err(); err != nil {
		t.Fatalf("writer error: %v", err)
	}
	roundTrip(t, &buf, FormatBinary)
}

func TestRoundTripJSONL(t *testing.T) {
	var buf bytes.Buffer
	jw := NewJSONWriter(&buf, sampleMeta)
	writeSample(jw)
	if err := jw.Err(); err != nil {
		t.Fatalf("writer error: %v", err)
	}
	roundTrip(t, &buf, FormatJSONL)
}

// roundTrip decodes buf and compares header and records against the
// sample.
func roundTrip(t *testing.T, buf *bytes.Buffer, format Format) {
	t.Helper()
	jr, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	if jr.Format() != format {
		t.Errorf("detected format %v, want %v", jr.Format(), format)
	}
	if got := jr.Meta(); got != sampleMeta {
		t.Errorf("meta round-trip:\n got %+v\nwant %+v", got, sampleMeta)
	}
	got, err := jr.ReadAll()
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	want := wantSample()
	if len(got) != len(want) {
		t.Fatalf("decoded %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("record %d:\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}
}

func TestWriterRecordMatchesTypedEmitters(t *testing.T) {
	var typed, generic bytes.Buffer
	jw := NewWriter(&typed, sampleMeta)
	writeSample(jw)
	if err := jw.Err(); err != nil {
		t.Fatalf("typed writer: %v", err)
	}
	gw := NewWriter(&generic, sampleMeta)
	for _, r := range wantSample() {
		gw.Record(r)
	}
	if err := gw.Err(); err != nil {
		t.Fatalf("generic writer: %v", err)
	}
	if !bytes.Equal(typed.Bytes(), generic.Bytes()) {
		t.Errorf("Record() encoding differs from typed emitters:\n typed  %x\n record %x",
			typed.Bytes(), generic.Bytes())
	}
}

func TestWriterCounts(t *testing.T) {
	jw := NewWriter(io.Discard, Meta{})
	writeSample(jw)
	if got := jw.Seq(); got != 28 {
		t.Errorf("seq after 28 records = %d", got)
	}
	for _, tc := range []struct {
		kind Kind
		want uint64
	}{{KindObserve, 2}, {KindDecision, 2}, {KindRebaseline, 2}, {KindSimFired, 1}, {Kind(0), 0}, {Kind(17), 0}} {
		if got := jw.Count(tc.kind); got != tc.want {
			t.Errorf("Count(%v) = %d, want %d", tc.kind, got, tc.want)
		}
	}
}

func TestReaderRejectsGarbage(t *testing.T) {
	cases := map[string][]byte{
		"empty":             nil,
		"bad magic version": append(append([]byte{}, magic[:]...), 99),
		"not json":          []byte("not-a-journal\n{}"),
	}
	for name, data := range cases {
		if _, err := NewReader(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: NewReader accepted invalid input", name)
		}
	}
}

func TestReaderRejectsTruncatedRecord(t *testing.T) {
	var buf bytes.Buffer
	jw := NewWriter(&buf, Meta{})
	jw.Observe(1, 0, 2)
	if err := jw.Err(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	jr, err := NewReader(bytes.NewReader(data[:len(data)-3]))
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	if _, err := jr.Next(); err == nil {
		t.Error("Next accepted a truncated record")
	}
}

func TestReaderRejectsOversizedRecord(t *testing.T) {
	var buf bytes.Buffer
	jw := NewWriter(&buf, Meta{})
	if err := jw.Err(); err != nil {
		t.Fatal(err)
	}
	// A length prefix claiming MaxRecordLen+1 bytes must be rejected
	// before any allocation attempt.
	buf.Write([]byte{0x81, 0x80, 0xc0, 0x00}) // uvarint > MaxRecordLen
	jr, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	if _, err := jr.Next(); err == nil {
		t.Error("Next accepted an oversized length prefix")
	}
}

func TestStickyWriterError(t *testing.T) {
	jw := NewWriter(&failAfter{n: 1}, Meta{})
	jw.Observe(1, 0, 2) // header already consumed the budget; this must latch
	if jw.Err() == nil {
		t.Fatal("writer did not latch the write error")
	}
	before := jw.Seq()
	jw.Observe(2, 0, 3)
	if jw.Seq() != before {
		t.Error("writer kept assigning sequence numbers after the error latched")
	}
}

// failAfter fails every Write after the first n calls.
type failAfter struct{ n int }

// Write consumes the budget, then fails.
func (f *failAfter) Write(p []byte) (int, error) {
	if f.n > 0 {
		f.n--
		return len(p), nil
	}
	return 0, io.ErrClosedPipe
}

func TestSpecialFloatsRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	jw := NewWriter(&buf, Meta{})
	jw.Observe(0, 0, math.Inf(1))
	jw.Observe(0, 0, -0.0)
	if err := jw.Err(); err != nil {
		t.Fatal(err)
	}
	jr, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	recs, err := jr.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(recs[0].Value, 1) {
		t.Errorf("+Inf did not round-trip: %v", recs[0].Value)
	}
	if math.Float64bits(recs[1].Value) != math.Float64bits(-0.0) {
		t.Errorf("-0.0 did not round-trip bit-exactly: %v", recs[1].Value)
	}
}

// BenchmarkWriterObserve pins the zero-allocation contract of the
// binary encode path: journaling must never perturb what it measures.
func BenchmarkWriterObserve(b *testing.B) {
	jw := NewWriter(io.Discard, Meta{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		jw.Observe(float64(i), 0, 5.0)
	}
	if err := jw.Err(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkWriterDecision times the fattest record on the hot path.
func BenchmarkWriterDecision(b *testing.B) {
	jw := NewWriter(io.Discard, Meta{})
	d := core.Decision{Evaluated: true, SampleMean: 7.5, Target: 10, Level: 1, Fill: 2}
	in := core.Internals{SampleSize: 2, SampleFill: 0}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		jw.Decision(float64(i), 0, d, in, false, 0)
	}
	if err := jw.Err(); err != nil {
		b.Fatal(err)
	}
}

func TestWriterObserveDoesNotAllocate(t *testing.T) {
	jw := NewWriter(io.Discard, Meta{})
	jw.Observe(0, 0, 1) // warm the scratch buffer
	allocs := testing.AllocsPerRun(1000, func() {
		jw.Observe(1, 0, 2)
	})
	if allocs != 0 {
		t.Errorf("binary Observe allocates %.1f objects per record, want 0", allocs)
	}
}

func TestWriterDecisionDoesNotAllocate(t *testing.T) {
	jw := NewWriter(io.Discard, Meta{})
	d := core.Decision{Evaluated: true, SampleMean: 7.5, Target: 10, Level: 1, Fill: 2}
	in := core.Internals{SampleSize: 2}
	jw.Decision(0, 0, d, in, false, 0)
	allocs := testing.AllocsPerRun(1000, func() {
		jw.Decision(1, 0, d, in, false, 0)
	})
	if allocs != 0 {
		t.Errorf("binary Decision allocates %.1f objects per record, want 0", allocs)
	}
}

func TestWriterStreamEmittersDoNotAllocate(t *testing.T) {
	jw := NewWriter(io.Discard, Meta{})
	jw.StreamOpen(0, 1, "sraa")
	// Warm the scratch buffer.
	jw.Observe(0, 1, 5)
	d := core.Decision{Evaluated: true, SampleMean: 5, Target: 6, Level: 1, Fill: 1}
	in := core.Internals{SampleSize: 2}
	if avg := testing.AllocsPerRun(200, func() {
		jw.Observe(1, 1, 5.5)
		jw.Rebaseline(1, 1, 5.5, 1)
		jw.Decision(1, 1, d, in, false, 0)
	}); avg != 0 {
		t.Errorf("stream-tagged emitters allocate %.1f times per observe+rebaseline+decision, want 0", avg)
	}
	if err := jw.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestWriterEmittersDoNotAllocate pins the zero-allocation contract of
// the binary codec for every record kind: each pinnedEmitters entry,
// the scheduler kinds written through Record included, allocates
// nothing once the scratch buffer has grown.
func TestWriterEmittersDoNotAllocate(t *testing.T) {
	jw := NewWriter(io.Discard, Meta{})
	for _, emit := range pinnedEmitters {
		emit(jw) // grow the scratch buffer
	}
	for i, emit := range pinnedEmitters {
		counts := jw.counts
		if allocs := testing.AllocsPerRun(100, func() { emit(jw) }); allocs != 0 {
			t.Errorf("record %d (%s): binary codec allocates %.1f objects per record, want 0",
				i, emittedKind(counts, jw.counts), allocs)
		}
	}
	if err := jw.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestWriterClipsClass checks that every class-carrying kind reads back
// with its Class clipped to MaxClassLen on both codecs, whether it was
// written through its typed emitter or through Writer.Record.
func TestWriterClipsClass(t *testing.T) {
	long := strings.Repeat("x", MaxClassLen-1) + strings.Repeat("y", 44)
	classKinds := []struct {
		kind  Kind
		typed func(jw *Writer, class string)
	}{
		{KindFault, func(jw *Writer, c string) { jw.Fault(1, c, 2) }},
		{KindActAttempt, func(jw *Writer, c string) { jw.ActAttempt(1, 1, false, 0, c, 0) }},
		{KindActGiveUp, func(jw *Writer, c string) { jw.ActGiveUp(1, 1, c, 0) }},
		{KindStreamOpen, func(jw *Writer, c string) { jw.StreamOpen(1, 1, c) }},
		{KindSchedDefer, nil},
		{KindSchedCoalesce, nil},
		{KindSchedStart, nil},
		{KindSchedQuarantine, nil},
	}
	readBack := func(t *testing.T, data []byte) Record {
		t.Helper()
		jr, err := NewReader(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		r, err := jr.Next()
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	codecs := []struct {
		name      string
		newWriter func(io.Writer, Meta) *Writer
	}{{"binary", NewWriter}, {"jsonl", NewJSONWriter}}

	// The table must name every kind the binary codec carries a class for.
	listed := map[Kind]bool{}
	for _, ck := range classKinds {
		listed[ck.kind] = true
	}
	for k := KindRepStart; k <= maxKind; k++ {
		var buf bytes.Buffer
		NewWriter(&buf, Meta{}).Record(Record{Kind: k, Class: "c"})
		if k.Valid() && readBack(t, buf.Bytes()).Class != "" && !listed[k] {
			t.Errorf("%s carries a class but is missing from the table", k)
		}
	}

	for _, ck := range classKinds {
		for _, codec := range codecs {
			paths := map[string]func(*Writer){
				"Record": func(jw *Writer) { jw.Record(Record{Kind: ck.kind, Time: 1, Class: long}) },
			}
			if ck.typed != nil {
				paths["typed"] = func(jw *Writer) { ck.typed(jw, long) }
			}
			for path, write := range paths {
				t.Run(fmt.Sprintf("%s/%s/%s", ck.kind, codec.name, path), func(t *testing.T) {
					var buf bytes.Buffer
					jw := codec.newWriter(&buf, Meta{})
					write(jw)
					if err := jw.Err(); err != nil {
						t.Fatal(err)
					}
					if got := readBack(t, buf.Bytes()).Class; got != long[:MaxClassLen] {
						t.Errorf("class read back at %d bytes, want the first %d of %d", len(got), MaxClassLen, len(long))
					}
				})
			}
		}
	}
}

// TestKindNumbersStable pins the byte value of every kind: the binary
// codec writes them raw, so renumbering would silently reinterpret
// journals. The version-1 fleet kinds 17, 18 and 20 stay retired and
// are rejected by both codecs.
func TestKindNumbersStable(t *testing.T) {
	want := map[Kind]byte{
		KindRepStart: 1, KindObserve: 2, KindDecision: 3, KindReset: 4,
		KindRejuvenation: 5, KindGCStart: 6, KindGCEnd: 7, KindSimScheduled: 8,
		KindSimFired: 9, KindSimCancelled: 10, KindFault: 11, KindActStart: 12,
		KindActAttempt: 13, KindActGiveUp: 14, KindStreamOpen: 15, KindStreamClose: 16,
		KindRebaseline: 19, KindSchedEnqueue: 21, KindSchedDefer: 22, KindSchedCoalesce: 23,
		KindSchedStart: 24, KindSchedComplete: 25, KindSchedQuarantine: 26, KindSchedReadmit: 27,
	}
	for k, b := range want {
		if byte(k) != b {
			t.Errorf("%v = %d, want %d", k, byte(k), b)
		}
	}
	for _, retired := range []byte{17, 18, 20} {
		k := Kind(retired)
		if k.Valid() {
			t.Errorf("retired kind %d is valid", retired)
		}
		// A well-formed version-2 frame carrying the retired kind byte.
		var buf bytes.Buffer
		NewWriter(&buf, Meta{})
		payload := append([]byte{retired, 0}, make([]byte, 8+1+8)...)
		buf.WriteByte(byte(len(payload)))
		buf.Write(payload)
		jr, err := NewReader(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := jr.Next(); err == nil {
			t.Errorf("binary decoder accepted retired kind %d", retired)
		}
	}
	for _, name := range []string{"stream_observe", "stream_decision", "stream_rebaseline"} {
		var k Kind
		if err := json.Unmarshal([]byte(fmt.Sprintf("%q", name)), &k); err == nil {
			t.Errorf("JSONL decoder accepted retired kind %q as %d", name, byte(k))
		}
	}
}

// fleetFactory builds the reference detectors the fleet replay tests
// verify against: two classes, one per detector family with averaging.
func fleetFactory(class string) (core.Detector, error) {
	switch class {
	case "sraa":
		return core.NewSRAA(core.SRAAConfig{
			SampleSize: 2, Buckets: 3, Depth: 2,
			Baseline: core.Baseline{Mean: 5, StdDev: 1},
		})
	case "saraa":
		return core.NewSARAA(core.SARAAConfig{
			InitialSampleSize: 4, Buckets: 3, Depth: 2,
			Baseline: core.Baseline{Mean: 5, StdDev: 1},
		})
	}
	return nil, fmt.Errorf("unknown class %q", class)
}

// writeFleetJournal records an interleaved two-class fleet run: streams
// open, observe in round-robin, one closes mid-run, and every evaluated
// decision is journaled next to its observation — the shape the fleet
// engine produces.
func writeFleetJournal(tb testing.TB, jw *Writer) {
	tb.Helper()
	classes := []string{"sraa", "saraa", "sraa"}
	dets := make([]core.Detector, len(classes))
	for i, class := range classes {
		det, err := fleetFactory(class)
		if err != nil {
			tb.Fatal(err)
		}
		dets[i] = det
		jw.StreamOpen(0, uint64(i+1), class)
	}
	rng := xrand.NewStream(99, 1)
	now := 1.0
	for round := 0; round < 50; round++ {
		for i, det := range dets {
			if det == nil {
				continue
			}
			// Push values above the mean often enough to walk the buckets.
			v := 5 + 2*rng.Float64()
			jw.Observe(now, uint64(i+1), v)
			d := det.Observe(v)
			if d.Evaluated || d.Triggered {
				var in core.Internals
				if instr, ok := det.(core.Instrumented); ok {
					in = instr.Internals()
				}
				jw.Decision(now, uint64(i+1), d, in, round%7 == 0, 0)
			}
			now += 0.25
		}
		if round == 30 {
			jw.StreamClose(now, 2)
			dets[1] = nil
		}
	}
	if err := jw.Err(); err != nil {
		tb.Fatalf("writer error: %v", err)
	}
}
