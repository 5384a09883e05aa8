package journal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strings"
	"testing"
)

// compareBufferSizes reads data through a Reader whose read buffer is
// bufio's 16-byte minimum, so almost every record takes the copying
// path of nextBinary, and through a default Reader, whose buffer holds
// most records whole so they are decoded in place. Both readers must
// fail to open alike, return identical records and identical errors,
// and report the same TornBytes. It returns the number of records
// both decoded.
func compareBufferSizes(t *testing.T, data []byte, tolerate bool) int {
	t.Helper()
	small, errSmall := newReaderSize(bytes.NewReader(data), 16)
	def, errDef := NewReader(bytes.NewReader(data))
	if fmt.Sprint(errSmall) != fmt.Sprint(errDef) {
		t.Fatalf("opening: 16-byte reader error %v, default reader error %v", errSmall, errDef)
	}
	if errDef != nil {
		return 0
	}
	if tolerate {
		small.TolerateTornTail()
		def.TolerateTornTail()
	}
	var a, b Record
	for i := 0; i < 1<<16; i++ {
		errSmall, errDef := small.next(&a), def.next(&b)
		if fmt.Sprint(errSmall) != fmt.Sprint(errDef) {
			t.Fatalf("record %d: 16-byte reader error %v, default reader error %v", i, errSmall, errDef)
		}
		if errDef != nil {
			if small.TornBytes() != def.TornBytes() {
				t.Fatalf("TornBytes: 16-byte reader %d, default reader %d", small.TornBytes(), def.TornBytes())
			}
			return i
		}
		if !identicalRecords(&a, &b) {
			t.Fatalf("record %d differs:\n 16-byte %+v\n default %+v", i, a, b)
		}
	}
	return 1 << 16
}

// TestReaderInPlaceMatchesCopyingPath checks that decoding a buffered
// record in place gives exactly what the copying path gives: on the
// pinned corpus of every record kind, on a record with a MaxClassLen
// class, on every truncation of a journal ending in a long record
// (strict and tolerant), on an oversized length prefix and on a
// payload with trailing bytes.
func TestReaderInPlaceMatchesCopyingPath(t *testing.T) {
	write := func(emit func(*Writer)) []byte {
		var buf bytes.Buffer
		jw := NewWriter(&buf, pinnedMeta)
		emit(jw)
		if err := jw.Err(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	head := write(func(*Writer) {})

	t.Run("pinned", func(t *testing.T) {
		data := write(func(jw *Writer) {
			for _, emit := range pinnedEmitters {
				emit(jw)
			}
		})
		if n := compareBufferSizes(t, data, false); n != len(pinnedEmitters) {
			t.Fatalf("decoded %d records, wrote %d", n, len(pinnedEmitters))
		}
	})
	t.Run("max-class", func(t *testing.T) {
		data := write(func(jw *Writer) {
			jw.Fault(1, strings.Repeat("c", MaxClassLen), 2.5)
			jw.Reset(2)
		})
		if n := compareBufferSizes(t, data, false); n != 2 {
			t.Fatalf("decoded %d records, wrote 2", n)
		}
	})
	t.Run("torn", func(t *testing.T) {
		// The journal of TestTolerateTornTailAfterLongRecord.
		full := write(func(jw *Writer) {
			for _, r := range wantSample() {
				jw.Record(r)
			}
			jw.Record(Record{Kind: KindFault, Time: 130, Class: strings.Repeat("x", MaxClassLen), Value: 1})
			jw.Record(Record{Kind: KindActGiveUp, Time: 131, Attempt: 3, Class: "short", TriggerID: 0xBEEF})
		})
		for cut := len(head); cut <= len(full); cut++ {
			for _, tolerate := range []bool{false, true} {
				compareBufferSizes(t, full[:cut], tolerate)
			}
		}
	})
	t.Run("oversized", func(t *testing.T) {
		data := binary.AppendUvarint(append([]byte{}, head...), MaxRecordLen+1)
		data = append(data, make([]byte, 32)...)
		for _, tolerate := range []bool{false, true} {
			if n := compareBufferSizes(t, data, tolerate); n != 0 {
				t.Fatalf("decoded %d records past an oversized length prefix", n)
			}
		}
	})
	t.Run("trailing", func(t *testing.T) {
		rec := write(func(jw *Writer) { jw.Reset(3) })[len(head):]
		n, k := binary.Uvarint(rec)
		data := binary.AppendUvarint(append([]byte{}, head...), n+1)
		data = append(append(data, rec[k:]...), 0)
		data = append(data, rec...) // a good record after the bad one
		if n := compareBufferSizes(t, data, false); n != 0 {
			t.Fatalf("decoded %d records before the padded payload", n)
		}
	})
}
