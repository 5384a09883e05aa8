package journal

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"strings"
	"testing"

	"rejuv/internal/core"
)

// TestWriterStepRecordGroup pins the record group Writer.Step writes
// for every hygiene policy, raw value class and rebaseline outcome: the
// fault record of an intercepted value first, then the observe record
// of the admitted (under HygieneClamp, substituted) value, the
// rebaseline record and the decision record.
func TestWriterStepRecordGroup(t *testing.T) {
	nan, pinf, ninf := math.NaN(), math.Inf(1), math.Inf(-1)
	// want is the group without a rebaseline; a rebased step adds
	// "rebaseline" before "decision". The clamp substitute is 5.
	cases := []struct {
		policy core.Hygiene
		raw    float64
		want   string
	}{
		{core.HygieneReject, 7, "observe(7) decision"},
		{core.HygieneReject, nan, "fault(nan)"},
		{core.HygieneReject, pinf, "fault(+inf)"},
		{core.HygieneReject, ninf, "fault(-inf)"},
		{core.HygieneClamp, 7, "observe(7) decision"},
		{core.HygieneClamp, nan, "fault(nan) observe(5) decision"},
		{core.HygieneClamp, pinf, "fault(+inf) observe(5) decision"},
		{core.HygieneClamp, ninf, "fault(-inf) observe(5) decision"},
		{core.HygieneOff, 7, "observe(7) decision"},
		{core.HygieneOff, nan, "observe(NaN) decision"},
		{core.HygieneOff, pinf, "observe(+Inf) decision"},
		{core.HygieneOff, ninf, "observe(-Inf) decision"},
	}
	const stream = 3
	for _, tc := range cases {
		for _, rebased := range []bool{false, true} {
			name := fmt.Sprintf("%v/%v/rebased=%v", tc.policy, tc.raw, rebased)
			var hyg core.HygieneState
			hyg.Admit(tc.policy, 5) // the value HygieneClamp substitutes
			var s core.Step
			s.Value, s.Admitted, s.Intercepted = hyg.Admit(tc.policy, tc.raw)
			if s.Admitted {
				s.Decision = core.Decision{Evaluated: true, SampleMean: s.Value}
				s.Rebased, s.Baseline = rebased, core.Baseline{Mean: 6, StdDev: 2}
			}
			var buf bytes.Buffer
			jw := NewWriter(&buf, Meta{})
			jw.Step(1.5, stream, tc.raw, &s, core.Internals{SampleSize: 1}, false, 0)
			if err := jw.Err(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			jr, err := NewReader(&buf)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			recs, err := jr.ReadAll()
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			var got []string
			for _, r := range recs {
				if r.Time != 1.5 || r.Stream != stream {
					t.Errorf("%s: %v record at time %v on stream %d, want time 1.5 on stream %d", name, r.Kind, r.Time, r.Stream, stream)
				}
				switch r.Kind {
				case KindFault:
					got = append(got, "fault("+r.Class+")")
				case KindObserve:
					got = append(got, fmt.Sprintf("observe(%v)", r.Value))
				case KindRebaseline:
					got = append(got, "rebaseline")
					if r.BaseMean != 6 || r.BaseStdDev != 2 {
						t.Errorf("%s: rebaseline to (%v, %v), want (6, 2)", name, r.BaseMean, r.BaseStdDev)
					}
				case KindDecision:
					got = append(got, "decision")
				default:
					got = append(got, r.Kind.String())
				}
			}
			want := tc.want
			if rebased {
				want = strings.Replace(want, "decision", "rebaseline decision", 1)
			}
			if g := strings.Join(got, " "); g != want {
				t.Errorf("%s: records %q, want %q", name, g, want)
			}
		}
	}
}

// TestWriterStepMatchesEmitters checks on both codecs that a Step
// writes the very bytes of its records written one by one through the
// typed emitters (the stream-tagged fault record through Record, as no
// typed emitter tags a fault with its stream), although it reuses one
// record for two of them.
func TestWriterStepMatchesEmitters(t *testing.T) {
	d := core.Decision{Evaluated: true, Triggered: true, SampleMean: 9.5, Target: 8, Level: 2, Fill: 1}
	in := core.Internals{SampleSize: 2, SampleFill: 1, Statistic: 0.5}
	steps := []core.Step{
		{Value: 5, Admitted: true},
		{Value: 5, Admitted: true, Decision: d},
		{Value: 5, Admitted: true, Intercepted: true, Decision: d, Rebased: true, Baseline: core.Baseline{Mean: 6, StdDev: 2}},
		{Intercepted: true},
	}
	for _, codec := range []struct {
		name string
		new  func(io.Writer, Meta) *Writer
	}{{"binary", NewWriter}, {"jsonl", NewJSONWriter}} {
		var got, want bytes.Buffer
		gw, ww := codec.new(&got, Meta{}), codec.new(&want, Meta{})
		for i := range steps {
			s := &steps[i]
			gw.Step(2, 7, math.Inf(1), s, in, true, 11)
			if s.Intercepted {
				ww.Record(Record{Kind: KindFault, Time: 2, Stream: 7, Class: "+inf"})
			}
			if s.Admitted {
				ww.Observe(2, 7, s.Value)
			}
			if s.Rebased {
				ww.Rebaseline(2, 7, s.Baseline.Mean, s.Baseline.StdDev)
			}
			if s.Decision.Evaluated {
				ww.Decision(2, 7, s.Decision, in, true, 11)
			}
		}
		if gw.Err() != nil || ww.Err() != nil {
			t.Fatalf("%s: writer errors %v, %v", codec.name, gw.Err(), ww.Err())
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("%s: Step wrote\n%q\nwant the emitters'\n%q", codec.name, got.Bytes(), want.Bytes())
		}
	}
}

// TestWriterStepDoesNotAllocate pins the zero-allocation contract of
// Writer.Step on the binary codec for its largest group: fault,
// observe, rebaseline and decision.
func TestWriterStepDoesNotAllocate(t *testing.T) {
	jw := NewWriter(io.Discard, Meta{})
	s := core.Step{
		Value:       5,
		Decision:    core.Decision{Evaluated: true, Triggered: true, SampleMean: 9, Target: 8},
		Admitted:    true,
		Intercepted: true,
		Rebased:     true,
		Baseline:    core.Baseline{Mean: 6, StdDev: 2},
	}
	in := core.Internals{SampleSize: 2}
	jw.Step(0, 0, math.NaN(), &s, in, false, 7) // warm the scratch buffer
	if allocs := testing.AllocsPerRun(1000, func() {
		jw.Step(1, 0, math.NaN(), &s, in, false, 7)
	}); allocs != 0 {
		t.Errorf("binary Step allocates %.1f objects per group, want 0", allocs)
	}
	if err := jw.Err(); err != nil {
		t.Fatal(err)
	}
}
