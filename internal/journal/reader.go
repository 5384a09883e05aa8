package journal

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
)

// Reader decodes a journal stream, auto-detecting the codec from the
// first bytes: a binary journal starts with the RJNL magic, anything
// else is treated as JSON lines. The decoder is defensive — length
// prefixes are bounded, kinds validated, truncation reported — because
// journals outlive the process that wrote them and may arrive damaged.
type Reader struct {
	br     *bufio.Reader
	format Format
	meta   Meta

	// tolerateTorn treats a truncated final record as clean EOF; torn
	// accumulates the dropped trailing bytes and drained latches EOF.
	tolerateTorn bool
	torn         int
	drained      bool

	// payload is the reused binary record buffer (see next).
	payload []byte
}

// NewReader wraps r and reads the journal header. It fails on a missing
// or malformed header rather than guessing.
func NewReader(r io.Reader) (*Reader, error) {
	return newReaderSize(r, 64<<10)
}

// newReaderSize is NewReader with a read buffer of size bytes (bufio's
// minimum of 16 applies). Records longer than the buffer, and records
// that straddle a refill, take the copying path of nextBinary.
func newReaderSize(r io.Reader, size int) (*Reader, error) {
	jr := &Reader{br: bufio.NewReaderSize(r, size)}
	head, err := jr.br.Peek(len(magic))
	if err != nil {
		return nil, fmt.Errorf("journal: reading stream head: %w", err)
	}
	if bytes.Equal(head, magic[:]) {
		jr.format = FormatBinary
		if err := jr.readBinaryHeader(); err != nil {
			return nil, err
		}
		return jr, nil
	}
	jr.format = FormatJSONL
	if err := jr.readJSONHeader(); err != nil {
		return nil, err
	}
	return jr, nil
}

// readBinaryHeader consumes magic, version and the meta block.
func (jr *Reader) readBinaryHeader() error {
	var head [len(magic) + 1]byte
	if _, err := io.ReadFull(jr.br, head[:]); err != nil {
		return fmt.Errorf("journal: reading binary header: %w", err)
	}
	if v := head[len(magic)]; v != Version {
		return fmt.Errorf("journal: unsupported binary version %d (this reader speaks %d)", v, Version)
	}
	n, err := binary.ReadUvarint(jr.br)
	if err != nil {
		return fmt.Errorf("journal: reading meta length: %w", err)
	}
	if n > MaxMetaLen {
		return fmt.Errorf("journal: meta block of %d bytes exceeds limit %d", n, MaxMetaLen)
	}
	data := make([]byte, n)
	if _, err := io.ReadFull(jr.br, data); err != nil {
		return fmt.Errorf("journal: reading meta block: %w", err)
	}
	if err := json.Unmarshal(data, &jr.meta); err != nil {
		return fmt.Errorf("journal: decoding meta: %w", err)
	}
	return nil
}

// readJSONHeader consumes the first line as the meta object.
func (jr *Reader) readJSONHeader() error {
	line, err := jr.readLine()
	if err != nil {
		return fmt.Errorf("journal: reading JSONL meta line: %w", err)
	}
	if err := json.Unmarshal(line, &jr.meta); err != nil {
		return fmt.Errorf("journal: decoding JSONL meta: %w", err)
	}
	return nil
}

// TolerateTornTail makes the reader treat a truncated final record — the
// signature of a crash mid-write — as a clean end of stream instead of an
// error, so one torn record never makes a whole journal unreadable. The
// dropped byte count is available from TornBytes afterwards. Corruption
// that is not a clean truncation (an oversized length prefix, a full-
// length record that fails to decode, a terminated JSONL line that fails
// to parse) still errors. Call before the first Next.
func (jr *Reader) TolerateTornTail() { jr.tolerateTorn = true }

// TornBytes returns how many trailing bytes of a torn final record were
// dropped under TolerateTornTail; 0 means the journal ended cleanly.
func (jr *Reader) TornBytes() int { return jr.torn }

// Meta returns the journal header.
func (jr *Reader) Meta() Meta { return jr.meta }

// Format returns the detected codec.
func (jr *Reader) Format() Format { return jr.format }

// Next returns the next record, or io.EOF at a clean end of stream. A
// truncated or corrupt record returns a descriptive non-EOF error.
func (jr *Reader) Next() (Record, error) {
	var r Record
	if err := jr.next(&r); err != nil {
		return Record{}, err
	}
	return r, nil
}

// next decodes the next record into r, a record the caller owns and
// may reuse across calls: r is zeroed first, so no field of the
// previous record survives into the next. The replay verifiers loop
// over one Record this way instead of copying each record out of Next.
// On error r holds no meaningful record.
//
// A binary record already whole in the read buffer is decoded there in
// place; any other payload is read into one buffer the Reader keeps,
// grown to the longest record so far and so bounded by MaxRecordLen.
// Decoding copies every string out, so no returned Record aliases
// either buffer.
func (jr *Reader) next(r *Record) error {
	*r = Record{}
	if jr.format == FormatJSONL {
		return jr.nextJSON(r)
	}
	return jr.nextBinary(r)
}

// ReadAll drains the journal into a slice, stopping at clean EOF.
func (jr *Reader) ReadAll() ([]Record, error) {
	var out []Record
	for {
		r, err := jr.Next()
		if errors.Is(err, io.EOF) {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, r)
	}
}

// nextJSON decodes one JSONL record line into the zeroed r.
func (jr *Reader) nextJSON(r *Record) error {
	if jr.drained {
		return io.EOF
	}
	line, err := jr.readLine()
	atEOF := errors.Is(err, io.EOF)
	if err != nil {
		if atEOF && len(bytes.TrimSpace(line)) == 0 {
			return io.EOF
		}
		if !atEOF {
			return fmt.Errorf("journal: reading JSONL record: %w", err)
		}
	}
	if len(bytes.TrimSpace(line)) == 0 {
		return io.EOF
	}
	// Unmarshal boxes its target, which would make every caller's r
	// escape; decode into a local and copy instead.
	var rec Record
	if err := json.Unmarshal(line, &rec); err != nil {
		// An unterminated final line that fails to parse is the JSONL
		// shape of a torn tail: the writer died mid-line.
		if atEOF && jr.tolerateTorn {
			return jr.tear(len(line))
		}
		return fmt.Errorf("journal: decoding JSONL record: %w", err)
	}
	if !rec.Kind.Valid() {
		if atEOF && jr.tolerateTorn {
			return jr.tear(len(line))
		}
		return fmt.Errorf("journal: JSONL record with invalid kind %d", byte(rec.Kind))
	}
	*r = rec
	return nil
}

// tear records a torn tail of n bytes and latches clean EOF.
func (jr *Reader) tear(n int) error {
	jr.torn += n
	jr.drained = true
	return io.EOF
}

// readLine reads one newline-terminated line without the terminator,
// tolerating an unterminated final line.
func (jr *Reader) readLine() ([]byte, error) {
	line, err := jr.br.ReadBytes('\n')
	return bytes.TrimSuffix(line, []byte{'\n'}), err
}

// nextBinary decodes one length-prefixed binary record into the zeroed
// r.
func (jr *Reader) nextBinary(r *Record) error {
	if jr.drained {
		return io.EOF
	}
	// Fast path: the length prefix and the whole payload are already
	// buffered, so decode them where they lie. Everything else — a
	// record straddling a refill, a torn or truncated tail, a malformed
	// or oversized prefix — takes the copying path below, which owns
	// every error text and torn-byte count.
	if buf, _ := jr.br.Peek(jr.br.Buffered()); len(buf) > 0 {
		if n, k := binary.Uvarint(buf); k > 0 && n <= MaxRecordLen && n <= uint64(len(buf)-k) {
			end := k + int(n)
			err := decodeBinary(buf[k:end], r)
			_, _ = jr.br.Discard(end) // the bytes are buffered; Discard cannot fail
			return err
		}
	}
	n, lenBytes, err := jr.readUvarintCounted()
	if err != nil {
		if errors.Is(err, io.EOF) && lenBytes == 0 {
			return io.EOF // clean end of stream
		}
		// A partial length prefix at EOF is a torn tail.
		if jr.tolerateTorn && (errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF)) {
			return jr.tear(lenBytes)
		}
		if errors.Is(err, io.EOF) {
			// Do not let ReadAll mistake a mid-varint EOF for a clean end.
			err = io.ErrUnexpectedEOF
		}
		return fmt.Errorf("journal: reading record length: %w", err)
	}
	if n > MaxRecordLen {
		return fmt.Errorf("journal: record of %d bytes exceeds limit %d", n, MaxRecordLen)
	}
	if uint64(cap(jr.payload)) < n {
		jr.payload = make([]byte, n)
	}
	payload := jr.payload[:n]
	read, err := io.ReadFull(jr.br, payload)
	if err != nil {
		// A payload cut short by EOF is the binary shape of a torn tail:
		// the length prefix landed but the record body did not.
		if jr.tolerateTorn && (errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF)) {
			return jr.tear(lenBytes + read)
		}
		if errors.Is(err, io.EOF) {
			// A record cut at the payload start must not read as clean EOF.
			err = io.ErrUnexpectedEOF
		}
		return fmt.Errorf("journal: truncated record (%d bytes expected): %w", n, err)
	}
	return decodeBinary(payload, r)
}

// readUvarintCounted reads one unsigned varint, also reporting how many
// bytes it consumed so a torn tail can be sized precisely.
func (jr *Reader) readUvarintCounted() (uint64, int, error) {
	var v uint64
	for i := 0; ; i++ {
		b, err := jr.br.ReadByte()
		if err != nil {
			return 0, i, err
		}
		if i == binary.MaxVarintLen64 {
			return 0, i + 1, fmt.Errorf("journal: record length varint overflows")
		}
		if b < 0x80 {
			return v | uint64(b)<<(7*i), i + 1, nil
		}
		v |= uint64(b&0x7f) << (7 * i)
	}
}

// decodeBinary parses one binary record payload into the zeroed r.
func decodeBinary(payload []byte, r *Record) error {
	c := cursor{b: payload}
	r.Kind = Kind(c.u8())
	if !r.Kind.Valid() {
		return fmt.Errorf("journal: invalid record kind %d", byte(r.Kind))
	}
	r.Seq = c.uvarint()
	r.Time = c.f64()
	switch r.Kind {
	case KindRepStart:
		r.Rep = int(c.uvarint())
		r.Seed = c.uvarint()
		r.Stream = c.uvarint()
	case KindObserve:
		r.Stream = c.uvarint()
		r.Value = c.f64()
	case KindDecision:
		r.Stream = c.uvarint()
		decodeDecisionFields(&c, r)
		r.TriggerID = c.trailing()
	case KindReset, KindSimFired, KindSimCancelled:
		// no payload
	case KindRejuvenation:
		r.Killed = int(c.uvarint())
	case KindGCStart, KindGCEnd:
		r.HeapMB = c.f64()
	case KindSimScheduled:
		r.EventTime = c.f64()
	case KindFault:
		r.Class = c.str()
		r.Value = c.f64()
		r.Stream = c.trailing()
	case KindActStart:
		r.TriggerID = c.trailing()
	case KindActAttempt:
		r.OK = c.u8() != 0
		r.Attempt = int(c.uvarint())
		r.Backoff = c.f64()
		r.Class = c.str()
		r.TriggerID = c.trailing()
	case KindActGiveUp:
		r.Attempt = int(c.uvarint())
		r.Class = c.str()
		r.TriggerID = c.trailing()
	case KindStreamOpen:
		r.Stream = c.uvarint()
		r.Class = c.str()
	case KindStreamClose:
		r.Stream = c.uvarint()
	case KindRebaseline:
		r.Stream = c.uvarint()
		r.BaseMean = c.f64()
		r.BaseStdDev = c.f64()
	case KindSchedEnqueue:
		r.Stream = c.uvarint()
		r.Level = int(c.uvarint())
		r.Fill = int(c.uvarint())
		r.EventTime = c.f64()
		r.Value = c.f64()
		r.TriggerID = c.trailing()
	case KindSchedDefer:
		r.Stream = c.uvarint()
		r.Class = c.str()
		r.Level = int(c.uvarint())
		r.Fill = int(c.uvarint())
		r.Attempt = int(c.uvarint())
		r.TriggerID = c.trailing()
	case KindSchedCoalesce:
		r.Stream = c.uvarint()
		r.Class = c.str()
		r.Level = int(c.uvarint())
		r.Fill = int(c.uvarint())
		r.Attempt = int(c.uvarint())
		r.EventTime = c.f64()
		r.Value = c.f64()
		r.TriggerID = c.trailing()
	case KindSchedStart:
		r.Stream = c.uvarint()
		r.Class = c.str()
		r.Value = c.f64()
		r.Backoff = c.f64()
		r.TriggerID = c.trailing()
	case KindSchedComplete:
		r.Stream = c.uvarint()
		r.OK = c.u8() != 0
		r.TriggerID = c.trailing()
	case KindSchedQuarantine:
		r.Stream = c.uvarint()
		r.Class = c.str()
		r.TriggerID = c.trailing()
	case KindSchedReadmit:
		r.Stream = c.uvarint()
		r.TriggerID = c.trailing()
	}
	if c.err != nil {
		return fmt.Errorf("journal: %s record: %w", r.Kind, c.err)
	}
	if c.off != len(c.b) {
		return fmt.Errorf("journal: %s record carries %d trailing bytes", r.Kind, len(c.b)-c.off)
	}
	return nil
}

// trailing parses an optional trailing field written by appendTrailing
// (a trigger id, or a fault record's stream id): it is present exactly
// when payload bytes remain after the kind's fixed fields, so journals
// written before the field existed (and records whose value is 0, which
// the writer omits) decode unchanged with 0.
func (c *cursor) trailing() uint64 {
	if c.err != nil || c.off >= len(c.b) {
		return 0
	}
	return c.uvarint()
}

// decodeDecisionFields parses the canonical decision payload written by
// appendDecision.
func decodeDecisionFields(c *cursor, r *Record) {
	flags := c.u8()
	r.Evaluated = flags&flagEvaluated != 0
	r.Triggered = flags&flagTriggered != 0
	r.Suppressed = flags&flagSuppressed != 0
	r.SampleMean = c.f64()
	r.Target = c.f64()
	r.Level = int(c.uvarint())
	r.Fill = int(c.uvarint())
	r.SampleSize = int(c.uvarint())
	r.SampleFill = int(c.uvarint())
	r.Statistic = c.f64()
}

// cursor walks a record payload, latching the first decode error so the
// per-field reads stay linear.
type cursor struct {
	b   []byte
	off int
	err error
}

// u8 reads one byte.
func (c *cursor) u8() byte {
	if c.err != nil {
		return 0
	}
	if c.off >= len(c.b) {
		c.err = errTruncated
		return 0
	}
	v := c.b[c.off]
	c.off++
	return v
}

// uvarint reads one unsigned varint.
func (c *cursor) uvarint() uint64 {
	if c.err != nil {
		return 0
	}
	// Most varints in a record (stream ids, levels, fills, sample
	// sizes) fit in one byte.
	if c.off < len(c.b) && c.b[c.off] < 0x80 {
		v := c.b[c.off]
		c.off++
		return uint64(v)
	}
	v, n := binary.Uvarint(c.b[c.off:])
	if n <= 0 {
		c.err = errTruncated
		return 0
	}
	c.off += n
	return v
}

// f64 reads one little-endian IEEE-754 double.
func (c *cursor) f64() float64 {
	if c.err != nil {
		return 0
	}
	if c.off+8 > len(c.b) {
		c.err = errTruncated
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(c.b[c.off:]))
	c.off += 8
	return v
}

// str reads one length-prefixed string, bounded by MaxClassLen.
func (c *cursor) str() string {
	n := c.uvarint()
	if c.err != nil {
		return ""
	}
	if n > MaxClassLen {
		c.err = fmt.Errorf("journal: string of %d bytes exceeds limit %d", n, MaxClassLen)
		return ""
	}
	if c.off+int(n) > len(c.b) {
		c.err = errTruncated
		return ""
	}
	v := string(c.b[c.off : c.off+int(n)])
	c.off += int(n)
	return v
}

// errTruncated reports a payload shorter than its kind requires.
var errTruncated = errors.New("truncated payload")
