package journal

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"rejuv/internal/core"
)

// fuzzSeed builds a valid binary journal for the fuzz corpus.
func fuzzSeed() []byte {
	var buf bytes.Buffer
	jw := NewWriter(&buf, sampleMeta)
	writeSample(jw)
	return buf.Bytes()
}

// fuzzSeedJSONL builds a valid JSONL journal for the fuzz corpus.
func fuzzSeedJSONL() []byte {
	var buf bytes.Buffer
	jw := NewJSONWriter(&buf, sampleMeta)
	writeSample(jw)
	return buf.Bytes()
}

// fuzzSeedFleet builds a valid stream-tagged fleet journal for the
// fuzz corpus.
func fuzzSeedFleet(f *testing.F) []byte {
	var buf bytes.Buffer
	jw := NewWriter(&buf, sampleMeta)
	writeFleetJournal(f, jw)
	return buf.Bytes()
}

// fuzzSeedFaultStream builds a valid binary journal whose fault
// records carry the optional trailing stream id, for the fuzz corpus.
func fuzzSeedFaultStream() []byte {
	var buf bytes.Buffer
	writeFaultStreams(NewWriter(&buf, sampleMeta))
	return buf.Bytes()
}

// FuzzReader throws arbitrary bytes at the decoder: it must never
// panic, never loop forever, and on records it does accept, re-encoding
// must reproduce the accepted payload (decode/encode idempotence).
// Decoding into one reused Record must also match a fresh decode per
// record, errors included, and a Reader with a 16-byte read buffer,
// which decodes through the copying path, must match a default one,
// which decodes buffered records in place, strict and tolerant alike.
func FuzzReader(f *testing.F) {
	f.Add(fuzzSeed())
	f.Add(fuzzSeedJSONL())
	f.Add(fuzzSeedFleet(f))
	f.Add(fuzzSeedFaultStream())
	f.Add([]byte{})
	f.Add(magic[:])
	f.Add(append(append([]byte{}, magic[:]...), Version, 0x02, '{', '}'))
	f.Fuzz(func(t *testing.T, data []byte) {
		compareReuse(t, data)
		compareBufferSizes(t, data, false)
		compareBufferSizes(t, data, true)
		jr, err := NewReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		for i := 0; i < 1<<16; i++ {
			rec, err := jr.Next()
			if errors.Is(err, io.EOF) {
				return
			}
			if err != nil {
				return
			}
			if !rec.Kind.Valid() {
				t.Fatalf("decoder accepted invalid kind %d", byte(rec.Kind))
			}
			if jr.Format() == FormatBinary {
				reencodeCheck(t, rec)
			}
		}
	})
}

// reencodeCheck asserts that encoding an accepted record and decoding
// it again yields the same payload bytes — the decoder and encoder
// agree on the wire layout.
func reencodeCheck(t *testing.T, rec Record) {
	t.Helper()
	var buf bytes.Buffer
	jw := NewWriter(&buf, Meta{})
	jw.Record(rec)
	if err := jw.Err(); err != nil {
		t.Fatalf("re-encoding accepted record %+v: %v", rec, err)
	}
	jr, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("re-reading re-encoded record: %v", err)
	}
	rec2, err := jr.Next()
	if err != nil {
		t.Fatalf("re-decoding re-encoded record %+v: %v", rec, err)
	}
	// Seq is reassigned by the writer; mask it for the comparison. The
	// remaining fields must survive the round trip bit-exactly (floats
	// compared through their encodings below, not with ==).
	rec.Seq, rec2.Seq = 0, 0
	b1 := appendPayload(nil, &rec)
	b2 := appendPayload(nil, &rec2)
	if !bytes.Equal(b1, b2) {
		t.Fatalf("record did not survive re-encode round trip:\n first %+v\nsecond %+v", rec, rec2)
	}
}

// FuzzReplayRobustness feeds arbitrary journals to the replay verifier:
// whatever the bytes, Replay must return, not panic. The class-keyed
// factory builds the fleet seed's classes and an SRAA for stream 0;
// unknown classes fail the way a real factory does.
func FuzzReplayRobustness(f *testing.F) {
	f.Add(fuzzSeed())
	f.Add(fuzzSeedJSONL())
	f.Add(fuzzSeedFleet(f))
	f.Fuzz(func(t *testing.T, data []byte) {
		jr, err := NewReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		factory := func(class string) (core.Detector, error) {
			if class == "" {
				class = "sraa"
			}
			return fleetFactory(class)
		}
		_, _ = Replay(jr, factory)
	})
}
