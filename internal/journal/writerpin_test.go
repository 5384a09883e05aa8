package journal

import (
	"bytes"
	"encoding/hex"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rejuv/internal/core"
)

// updateGolden regenerates the writer byte pins under testdata instead
// of comparing against them:
//
//	go test ./internal/journal -run TestWriterBytesPinned -update-golden
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata writer byte pins")

// pinnedEmitters writes one record of every kind: through the typed
// emitters, and through Record for the scheduler kinds, which have
// none. The values exercise every optional encoding: non-zero stream
// ids, trigger ids present and absent, class strings, ±0 and negative
// zero time. The two trailing records carry NaN, which only
// the binary codec can encode; the JSONL encoder rejects it, so they
// come last and the JSONL pin ends where the error latches.
var pinnedEmitters = []func(jw *Writer){
	func(jw *Writer) { jw.RepStart(math.Copysign(0, -1), 2, 0xFEEDFACE, 9) },
	func(jw *Writer) { jw.SimScheduled(0.125, 1.75) },
	func(jw *Writer) { jw.SimFired(1.75) },
	func(jw *Writer) { jw.SimCancelled(1.875) },
	func(jw *Writer) { jw.StreamOpen(2, 300, "web-saraa") },
	func(jw *Writer) { jw.Observe(2.5, 300, math.Copysign(0, -1)) },
	func(jw *Writer) { jw.Observe(2.75, 0, 4.0625) },
	func(jw *Writer) {
		jw.Decision(2.75, 300,
			core.Decision{Evaluated: true, Triggered: true, SampleMean: 9.5, Target: math.Copysign(0, -1), Level: 4, Fill: 3},
			core.Internals{SampleSize: 3, SampleFill: 2, Statistic: -1.25, Buckets: 5, Depth: 3},
			true, 0x7A11_0000_0001)
	},
	func(jw *Writer) {
		jw.Decision(3, 0,
			core.Decision{Evaluated: true, SampleMean: 0, Target: 6.5, Level: 1},
			core.Internals{SampleSize: 2},
			false, 0)
	},
	func(jw *Writer) { jw.Reset(3.25) },
	func(jw *Writer) { jw.Rejuvenation(3.25, 41) },
	func(jw *Writer) { jw.GCStart(4, 511.5) },
	func(jw *Writer) { jw.GCEnd(64, math.Copysign(0, -1)) },
	func(jw *Writer) { jw.Fault(65, "dup", 7.25) },
	func(jw *Writer) { jw.ActStart(66, 0x7A11_0000_0001) },
	func(jw *Writer) { jw.ActAttempt(66, 1, false, 0.5, "connection refused", 0x7A11_0000_0001) },
	func(jw *Writer) { jw.ActAttempt(66.5, 2, true, 0, "", 0) },
	func(jw *Writer) { jw.ActGiveUp(67, 3, "budget exhausted", 0x7A11_0000_0002) },
	func(jw *Writer) { jw.Rebaseline(68, 300, 12.75, math.Copysign(0, -1)) },
	func(jw *Writer) { jw.StreamClose(69, 300) },
	record(Record{Kind: KindSchedEnqueue, Time: 70, Stream: 5, Level: 4, Fill: 1, EventTime: 130.5, Value: 22.25, TriggerID: 0x7A11_0000_0001}),
	record(Record{Kind: KindSchedDefer, Time: 70.5, Stream: 5, Class: "capacity-floor", Level: 4, Fill: 1, Attempt: 3}),
	record(Record{Kind: KindSchedCoalesce, Time: 71, Stream: 5, Class: "starved", Level: 5, Attempt: 4, Value: 30.5, TriggerID: 0x7A11_0000_0001}),
	record(Record{Kind: KindSchedStart, Time: 72, Stream: 5, Class: "major", Value: 1, Backoff: 45, TriggerID: 0x7A11_0000_0001}),
	record(Record{Kind: KindSchedComplete, Time: 117, Stream: 5}),
	record(Record{Kind: KindSchedQuarantine, Time: 118, Stream: 6, Class: "actuator gave up", TriggerID: 0x7A11_0000_0003}),
	record(Record{Kind: KindSchedReadmit, Time: 200, Stream: 6, TriggerID: 0x7A11_0000_0003}),
	// NaN-carrying records: binary only.
	func(jw *Writer) { jw.Observe(201, 301, math.NaN()) },
	func(jw *Writer) { jw.Fault(202, "stall", math.NaN()) },
}

// record writes r through Writer.Record.
func record(r Record) func(*Writer) { return func(jw *Writer) { jw.Record(r) } }

// pinnedNaNRecords counts the trailing NaN records of pinnedEmitters.
const pinnedNaNRecords = 2

// pinnedMeta is the header of the pinned journals.
var pinnedMeta = Meta{CreatedBy: "writerpin", Detector: "SARAA", Seed: 7}

// pinnedJournal writes pinnedEmitters through w and renders the output
// one line per record: the header bytes first, then each record's
// kind and bytes. The binary form is hex; the JSONL form is the line
// itself.
func pinnedJournal(t *testing.T, newWriter func(*bytes.Buffer, Meta) *Writer, binary bool) string {
	t.Helper()
	var buf bytes.Buffer
	jw := newWriter(&buf, pinnedMeta)
	var out strings.Builder
	line := func(label string, b []byte) {
		if binary {
			fmt.Fprintf(&out, "%s %s\n", label, hex.EncodeToString(b))
		} else {
			fmt.Fprintf(&out, "%s %s", label, b)
		}
	}
	line("header", buf.Bytes())
	emitters := pinnedEmitters
	if !binary {
		emitters = emitters[:len(emitters)-pinnedNaNRecords+1]
	}
	for i, emit := range emitters {
		start, counts := buf.Len(), jw.counts
		emit(jw)
		if jw.Err() != nil {
			if binary || i != len(emitters)-1 {
				t.Fatalf("record %d: writer error %v", i, jw.Err())
			}
			if buf.Len() != start {
				t.Fatalf("JSONL writer emitted %d bytes of a record it rejected", buf.Len()-start)
			}
			break
		}
		line(emittedKind(counts, jw.counts).String(), buf.Bytes()[start:])
	}
	if !binary && jw.Err() == nil {
		t.Fatal("JSONL writer accepted a NaN record")
	}
	return out.String()
}

// emittedKind names the kind whose count differs between two snapshots
// of a writer's per-kind counts taken around one record.
func emittedKind(before, after [maxKind + 1]uint64) Kind {
	for k := range after {
		if after[k] != before[k] {
			return Kind(k)
		}
	}
	return 0
}

// assertPinned compares got with testdata/<name>, or rewrites the file
// under -update-golden.
func assertPinned(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing pin (run go test ./internal/journal -run TestWriterBytesPinned -update-golden): %v", err)
	}
	if got != string(want) {
		t.Errorf("writer bytes diverged from %s.\ngot:\n%s\nwant:\n%s", path, got, want)
	}
}

// TestWriterBytesPinned pins the exact bytes both codecs write for one
// record of every kind, through the typed emitters and again through
// Writer.Record fed the decoded records. Any change to the framing,
// field order, optional trigger ids or float encoding shows up as a
// reviewable diff of the pin files.
func TestWriterBytesPinned(t *testing.T) {
	jw := NewWriter(&bytes.Buffer{}, Meta{})
	for _, emit := range pinnedEmitters {
		emit(jw)
	}
	for k := KindRepStart; k <= maxKind; k++ {
		if k.Valid() && jw.Count(k) == 0 {
			t.Errorf("pinnedEmitters writes no %s record", k)
		}
	}

	for _, tc := range []struct {
		name      string
		newWriter func(*bytes.Buffer, Meta) *Writer
		binary    bool
	}{
		{"writer_pin_binary.hex", func(b *bytes.Buffer, m Meta) *Writer { return NewWriter(b, m) }, true},
		{"writer_pin.jsonl", func(b *bytes.Buffer, m Meta) *Writer { return NewJSONWriter(b, m) }, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			assertPinned(t, tc.name, pinnedJournal(t, tc.newWriter, tc.binary))

			// Writer.Record must reproduce the typed emitters' bytes.
			var typed, generic bytes.Buffer
			tw := tc.newWriter(&typed, pinnedMeta)
			for _, emit := range pinnedEmitters {
				emit(tw)
			}
			jr, err := NewReader(bytes.NewReader(typed.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			recs, err := jr.ReadAll()
			if err != nil {
				t.Fatal(err)
			}
			gw := tc.newWriter(&generic, pinnedMeta)
			for _, r := range recs {
				gw.Record(r)
			}
			if err := gw.Err(); err != nil {
				t.Fatalf("Record writer: %v", err)
			}
			if !bytes.Equal(typed.Bytes(), generic.Bytes()) {
				t.Errorf("Writer.Record bytes differ from the typed emitters:\n typed  %q\n record %q",
					typed.Bytes(), generic.Bytes())
			}
		})
	}
}

// writeCounter counts Write calls and keeps the last one's bytes.
type writeCounter struct {
	writes int
	last   []byte
}

func (w *writeCounter) Write(p []byte) (int, error) {
	w.writes++
	w.last = append(w.last[:0], p...)
	return len(p), nil
}

// TestWriterOneWritePerRecord pins the framing contract of the binary
// codec: every record reaches the underlying writer as exactly one
// Write carrying its length prefix and payload, so an unbuffered sink
// never sees a prefix without its record.
func TestWriterOneWritePerRecord(t *testing.T) {
	var w writeCounter
	jw := NewWriter(&w, pinnedMeta)
	header := append([]byte(nil), w.last...)
	for i, emit := range pinnedEmitters {
		before := w.writes
		emit(jw)
		if got := w.writes - before; got != 1 {
			t.Errorf("record %d: %d Write calls, want 1", i, got)
		}
		jr, err := NewReader(bytes.NewReader(append(append([]byte(nil), header...), w.last...)))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := jr.Next(); err != nil {
			t.Errorf("record %d: its one Write does not decode alone: %v", i, err)
		}
	}
	if err := jw.Err(); err != nil {
		t.Fatal(err)
	}
}
