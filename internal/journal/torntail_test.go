package journal

import (
	"bytes"
	"strings"
	"testing"
)

// journalBytes writes the shared sample journal in the given codec.
func journalBytes(t *testing.T, format Format) []byte {
	t.Helper()
	var buf bytes.Buffer
	var jw *Writer
	if format == FormatBinary {
		jw = NewWriter(&buf, sampleMeta)
	} else {
		jw = NewJSONWriter(&buf, sampleMeta)
	}
	writeSample(jw)
	if err := jw.Err(); err != nil {
		t.Fatalf("writer: %v", err)
	}
	return buf.Bytes()
}

// readTolerant decodes data with TolerateTornTail and returns the
// records plus the number of torn bytes.
func readTolerant(t *testing.T, data []byte) ([]Record, int) {
	t.Helper()
	jr, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	jr.TolerateTornTail()
	recs, err := jr.ReadAll()
	if err != nil {
		t.Fatalf("ReadAll under TolerateTornTail: %v", err)
	}
	return recs, jr.TornBytes()
}

// TestTolerateTornTailBinary truncates a binary journal at every byte
// boundary inside its final record and asserts that the tolerant reader
// salvages every complete record, reports the exact number of dropped
// bytes, and that the strict reader still errors.
func TestTolerateTornTailBinary(t *testing.T) {
	full := journalBytes(t, FormatBinary)
	complete := wantSample()

	// Locate the start of the final record by re-reading all but it.
	jr, err := NewReader(bytes.NewReader(full))
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	if _, err := jr.ReadAll(); err != nil {
		t.Fatalf("ReadAll of intact journal: %v", err)
	}

	// Find the boundary: encode all records but the last and measure.
	var head bytes.Buffer
	hw := NewWriter(&head, sampleMeta)
	for _, r := range complete[:len(complete)-1] {
		hw.Record(r)
	}
	if err := hw.Err(); err != nil {
		t.Fatalf("head writer: %v", err)
	}
	boundary := head.Len()
	if boundary >= len(full) {
		t.Fatalf("boundary %d not inside journal of %d bytes", boundary, len(full))
	}

	for cut := boundary + 1; cut < len(full); cut++ {
		recs, torn := readTolerant(t, full[:cut])
		if len(recs) != len(complete)-1 {
			t.Fatalf("cut at %d: salvaged %d records, want %d", cut, len(recs), len(complete)-1)
		}
		if want := cut - boundary; torn != want {
			t.Errorf("cut at %d: TornBytes = %d, want %d", cut, torn, want)
		}
		// The strict reader must still refuse the same truncation.
		sr, err := NewReader(bytes.NewReader(full[:cut]))
		if err != nil {
			t.Fatalf("strict NewReader: %v", err)
		}
		if _, err := sr.ReadAll(); err == nil {
			t.Errorf("cut at %d: strict reader accepted a torn journal", cut)
		}
	}
}

// TestTolerateTornTailAfterLongRecord tears a short final record that
// follows a MaxClassLen-class record, so the torn payload is read into
// the reader's payload buffer already grown by the long one, and
// asserts that TornBytes stays exact at every cut.
func TestTolerateTornTailAfterLongRecord(t *testing.T) {
	complete := append(wantSample(),
		Record{Kind: KindFault, Time: 130, Class: strings.Repeat("x", MaxClassLen), Value: 1},
		Record{Kind: KindActGiveUp, Time: 131, Attempt: 3, Class: "short", TriggerID: 0xBEEF})
	write := func(recs []Record) []byte {
		var buf bytes.Buffer
		jw := NewWriter(&buf, sampleMeta)
		for _, r := range recs {
			jw.Record(r)
		}
		if err := jw.Err(); err != nil {
			t.Fatalf("writer: %v", err)
		}
		return buf.Bytes()
	}
	full := write(complete)
	boundary := len(write(complete[:len(complete)-1]))
	for cut := boundary + 1; cut < len(full); cut++ {
		recs, torn := readTolerant(t, full[:cut])
		if len(recs) != len(complete)-1 {
			t.Fatalf("cut at %d: salvaged %d records, want %d", cut, len(recs), len(complete)-1)
		}
		if want := cut - boundary; torn != want {
			t.Errorf("cut at %d: TornBytes = %d, want %d", cut, torn, want)
		}
	}
}

// TestTolerateTornTailCleanEOF asserts that an intact journal reports
// zero torn bytes under the tolerant reader.
func TestTolerateTornTailCleanEOF(t *testing.T) {
	for _, format := range []Format{FormatBinary, FormatJSONL} {
		recs, torn := readTolerant(t, journalBytes(t, format))
		if torn != 0 {
			t.Errorf("%v: TornBytes = %d on an intact journal", format, torn)
		}
		if len(recs) != len(wantSample()) {
			t.Errorf("%v: read %d records, want %d", format, len(recs), len(wantSample()))
		}
	}
}

// TestTolerateTornTailJSONL truncates a JSONL journal mid-final-line and
// asserts salvage; a corrupt line that IS newline-terminated must still
// error even under the tolerant reader, because that is corruption, not
// a crash mid-write.
func TestTolerateTornTailJSONL(t *testing.T) {
	full := journalBytes(t, FormatJSONL)
	complete := wantSample()
	lines := bytes.SplitAfter(full, []byte("\n"))
	// lines ends with an empty slice after the final terminator.
	last := lines[len(lines)-2]
	boundary := len(full) - len(last)

	for cut := boundary + 1; cut < len(full); cut++ {
		// Skip cut points that leave a parseable prefix (possible when
		// the truncation only removes trailing whitespace/newline).
		recs, torn := readTolerant(t, full[:cut])
		if torn > 0 {
			if len(recs) != len(complete)-1 {
				t.Fatalf("cut at %d: salvaged %d records, want %d", cut, len(recs), len(complete)-1)
			}
			if want := cut - boundary; torn != want {
				t.Errorf("cut at %d: TornBytes = %d, want %d", cut, torn, want)
			}
		}
	}

	// A terminated but corrupt line is not a torn tail.
	corrupt := append(append([]byte{}, full...), []byte("{\"kind\":\"nope\"}\n")...)
	jr, err := NewReader(bytes.NewReader(corrupt))
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	jr.TolerateTornTail()
	if _, err := jr.ReadAll(); err == nil {
		t.Error("tolerant reader accepted a newline-terminated corrupt record")
	}
}

// TestTolerateTornTailDoesNotMaskMidStreamCorruption asserts that a
// full-length record with a garbage payload still errors: tolerance is
// strictly about truncation at EOF.
func TestTolerateTornTailDoesNotMaskMidStreamCorruption(t *testing.T) {
	full := journalBytes(t, FormatBinary)
	// Flip the kind byte of the final record to an invalid value while
	// keeping the length prefix intact; find it by writing the head.
	var head bytes.Buffer
	hw := NewWriter(&head, sampleMeta)
	complete := wantSample()
	for _, r := range complete[:len(complete)-1] {
		hw.Record(r)
	}
	corrupted := append([]byte{}, full...)
	// The byte after the final record's uvarint length prefix is its
	// kind. The last record (ActGiveUp) payload is short, so its length
	// prefix is one byte.
	corrupted[head.Len()+1] = 0xEE
	jr, err := NewReader(bytes.NewReader(corrupted))
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	jr.TolerateTornTail()
	_, err = jr.ReadAll()
	if err == nil || !strings.Contains(err.Error(), "invalid record kind") {
		t.Errorf("tolerant reader did not surface mid-record corruption: %v", err)
	}
}
