package journal

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"
)

// identicalRecords reports whether a and b agree on every field, floats
// compared bit for bit so NaN payloads and signed zeros count. It
// walks the struct by reflection so a field added to Record is covered
// without editing this helper.
func identicalRecords(a, b *Record) bool {
	va, vb := reflect.ValueOf(a).Elem(), reflect.ValueOf(b).Elem()
	for i := 0; i < va.NumField(); i++ {
		fa, fb := va.Field(i), vb.Field(i)
		if fa.Kind() == reflect.Float64 {
			if math.Float64bits(fa.Float()) != math.Float64bits(fb.Float()) {
				return false
			}
			continue
		}
		if fa.Interface() != fb.Interface() {
			return false
		}
	}
	return true
}

// compareReuse decodes data twice, once into a single reused Record
// through Reader.next and once with a fresh Reader.Next per record, and
// fails on the first record or error where the two disagree. It
// returns the number of records both decoded.
func compareReuse(t *testing.T, data []byte) int {
	t.Helper()
	fresh, err := NewReader(bytes.NewReader(data))
	if err != nil {
		return 0
	}
	reused, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("second reader over the same bytes failed: %v", err)
	}
	var rec Record
	for i := 0; i < 1<<16; i++ {
		want, errFresh := fresh.Next()
		errReused := reused.next(&rec)
		if fmt.Sprint(errFresh) != fmt.Sprint(errReused) {
			t.Fatalf("record %d: Next error %v, reused-record error %v", i, errFresh, errReused)
		}
		if errFresh != nil {
			return i
		}
		if !identicalRecords(&want, &rec) {
			t.Fatalf("record %d decoded into a reused Record differs from a fresh one:\n fresh  %+v\n reused %+v", i, want, rec)
		}
	}
	return 1 << 16
}

// TestReaderReuseLeaksNoFields decodes mixed-kind journals in both
// codecs into one reused Record and checks every record against a
// fresh decode: no field of one record may survive into the next (a
// stream_open class into the following observe, a trigger id into the
// next non-triggering decision).
func TestReaderReuseLeaksNoFields(t *testing.T) {
	for _, tc := range []struct {
		name      string
		newWriter func(io.Writer, Meta) *Writer
		emitters  []func(*Writer)
	}{
		{"binary", NewWriter, pinnedEmitters},
		// The JSONL codec cannot carry the trailing NaN records.
		{"jsonl", NewJSONWriter, pinnedEmitters[:len(pinnedEmitters)-pinnedNaNRecords]},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			jw := tc.newWriter(&buf, pinnedMeta)
			writeSample(jw)
			writeFleetJournal(t, jw)
			for _, emit := range tc.emitters {
				emit(jw)
			}
			if err := jw.Err(); err != nil {
				t.Fatal(err)
			}
			if n := compareReuse(t, buf.Bytes()); uint64(n) != jw.Seq() {
				t.Fatalf("decoded %d records, wrote %d", n, jw.Seq())
			}
		})
	}
}

// TestReaderReuseMatchesOnErrors checks that the two decode paths also
// agree record for record up to a decode error, and on the error.
func TestReaderReuseMatchesOnErrors(t *testing.T) {
	var buf bytes.Buffer
	jw := NewWriter(&buf, pinnedMeta)
	for _, emit := range pinnedEmitters {
		emit(jw)
	}
	data := buf.Bytes()
	for _, cut := range []int{len(data) - 1, len(data) - 9, len(data) / 2} {
		if n := compareReuse(t, data[:cut]); n == 0 {
			t.Errorf("cut at %d: no record decoded before the truncation", cut)
		}
	}
}

// TestReaderRecordsOutliveBuffer checks that records returned by Next
// keep every field, class strings included, after later records have
// been decoded into the Reader's reused payload buffer; ReadAll
// collects them. The sample journal's class-carrying records (fault,
// actuator, stream-open and scheduler kinds) are overwritten by the
// shorter records after them, and are then repeated with
// MaxClassLen-byte classes that regrow the buffer and are overwritten
// in turn.
func TestReaderRecordsOutliveBuffer(t *testing.T) {
	want := wantSample()
	n := len(want)
	for i, r := range want[:n] {
		if r.Class != "" {
			r.Class = strings.Repeat(string(rune('a'+i%26)), MaxClassLen)
		}
		r.Seq += uint64(n)
		want = append(want, r)
	}
	var buf bytes.Buffer
	jw := NewWriter(&buf, sampleMeta)
	for _, r := range want {
		jw.Record(r)
	}
	if err := jw.Err(); err != nil {
		t.Fatal(err)
	}
	jr, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	got, err := jr.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("read %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !identicalRecords(&got[i], &want[i]) {
			t.Errorf("record %d changed after later decodes:\n got  %+v\n want %+v", i, got[i], want[i])
		}
	}
}
