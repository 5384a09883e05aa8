package core

import (
	"fmt"
	"io"
)

// Tracer wraps a detector and writes a line per evaluated sample to an
// io.Writer, so operators can replay a response-time log and see the
// bucket dynamics that led (or did not lead) to each rejuvenation:
//
//	obs=42 mean=6.25 level=1 fill=2
//	obs=44 mean=9.80 level=1 fill=3 TRIGGER
//
// Tracing is for offline analysis and debugging; it adds an I/O write
// per completed sample.
type Tracer struct {
	inner Detector
	w     io.Writer
	count uint64
}

// NewTracer wraps the detector; every evaluated decision is logged to w.
func NewTracer(inner Detector, w io.Writer) (*Tracer, error) {
	if inner == nil {
		return nil, fmt.Errorf("core: tracer needs a detector")
	}
	if w == nil {
		return nil, fmt.Errorf("core: tracer needs a writer")
	}
	return &Tracer{inner: inner, w: w}, nil
}

// Observe delegates and logs evaluated decisions. Write errors are
// swallowed: tracing must never turn a monitoring decision into a
// failure.
func (t *Tracer) Observe(x float64) Decision {
	t.count++
	d := t.inner.Observe(x)
	if d.Evaluated {
		suffix := ""
		if d.Triggered {
			suffix = " TRIGGER"
		}
		//lint:allow droppederr tracing must never turn a monitoring decision into a failure
		fmt.Fprintf(t.w, "obs=%d mean=%g level=%d fill=%d%s\n", //lint:allow hotpath the tracer is an offline debug wrapper, never on a production monitor
			t.count, d.SampleMean, d.Level, d.Fill, suffix)
	}
	return d
}

// Reset delegates and logs the reset.
func (t *Tracer) Reset() {
	//lint:allow droppederr tracing must never turn a monitoring decision into a failure
	fmt.Fprintf(t.w, "obs=%d RESET\n", t.count) //lint:allow hotpath the tracer is an offline debug wrapper, never on a production monitor
	t.inner.Reset()
}

var _ Detector = (*Tracer)(nil)
