package rejuv_test

import (
	"bytes"
	"fmt"
	"math"
	"testing"
	"time"

	"rejuv"
)

func fleetClasses() []rejuv.StreamClass {
	return []rejuv.StreamClass{
		{
			Name: "web", Family: rejuv.FamilySRAA,
			SampleSize: 2, Buckets: 3, Depth: 2,
			Baseline: rejuv.Baseline{Mean: 5, StdDev: 1},
		},
		{
			Name: "db", Family: rejuv.FamilyCLTA,
			SampleSize: 4, Quantile: 1.96,
			Baseline: rejuv.Baseline{Mean: 5, StdDev: 1},
		},
	}
}

// TestFleetRoundTrip drives the public fleet API end to end: open
// streams, batch observations through to a trigger, journal everything,
// and prove the journal replays cleanly through reference detectors.
func TestFleetRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	jw := rejuv.NewJournalWriter(&buf, rejuv.JournalMeta{CreatedBy: "fleet_test"})
	triggered := make(chan rejuv.FleetTrigger, 4)
	f, err := rejuv.NewFleet(rejuv.FleetConfig{
		Classes:   fleetClasses(),
		Cooldown:  time.Minute,
		Journal:   jw,
		OnTrigger: func(tr rejuv.FleetTrigger) { triggered <- tr },
	})
	if err != nil {
		t.Fatal(err)
	}
	for id := rejuv.StreamID(1); id <= 10; id++ {
		class := "web"
		if id%2 == 0 {
			class = "db"
		}
		if err := f.OpenStream(id, class); err != nil {
			t.Fatal(err)
		}
	}
	batch := make([]rejuv.StreamObs, 0, 40)
	for round := 0; round < 4; round++ {
		for id := rejuv.StreamID(1); id <= 10; id++ {
			v := 5.0
			if id == 4 {
				v = 40 // stream 4 is degraded
			}
			batch = append(batch, rejuv.StreamObs{Stream: id, Value: v})
		}
	}
	f.ObserveBatch(batch)
	select {
	case tr := <-triggered:
		if tr.Stream != 4 || tr.Class != "db" {
			t.Fatalf("trigger on stream %d class %q, want stream 4 class db", tr.Stream, tr.Class)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no trigger delivered for the degraded stream")
	}
	f.Close()
	if err := jw.Err(); err != nil {
		t.Fatal(err)
	}

	byName := make(map[string]rejuv.StreamClass)
	for _, c := range fleetClasses() {
		byName[c.Name] = c
	}
	report, err := rejuv.ReplayFleetJournal(bytes.NewReader(buf.Bytes()),
		func(class string) (rejuv.Detector, error) {
			c, ok := byName[class]
			if !ok {
				return nil, fmt.Errorf("unknown class %q", class)
			}
			return c.Detector()
		})
	if err != nil {
		t.Fatal(err)
	}
	if !report.Identical() {
		t.Fatalf("fleet journal failed replay verification: %v", report.Mismatch)
	}
	if report.Streams != 10 || report.Triggers == 0 {
		t.Fatalf("unexpected replay report: %+v", report)
	}
	if st := f.Stats(); st.Observations != 40 || st.Triggers != 1 {
		t.Fatalf("stats = %+v, want 40 observations and 1 trigger", st)
	}
}

// ExampleNewFleet monitors two streams in one batched engine; the
// degraded one triggers.
func ExampleNewFleet() {
	f, err := rejuv.NewFleet(rejuv.FleetConfig{
		Classes: []rejuv.StreamClass{{
			Name: "web", Family: rejuv.FamilyCLTA,
			SampleSize: 4, Quantile: 1.96,
			Baseline: rejuv.Baseline{Mean: 0.5, StdDev: 0.1},
		}},
	})
	if err != nil {
		panic(err)
	}
	defer f.Close()
	f.OpenStream(1, "web")
	f.OpenStream(2, "web")

	batch := make([]rejuv.StreamObs, 0, 8)
	for i := 0; i < 4; i++ {
		batch = append(batch,
			rejuv.StreamObs{Stream: 1, Value: 0.5}, // healthy
			rejuv.StreamObs{Stream: 2, Value: 2.5}, // degraded
		)
	}
	f.ObserveBatch(batch)

	tr := <-f.Triggers()
	fmt.Printf("stream %d triggered (mean %.2fs > target %.2fs)\n",
		tr.Stream, tr.Decision.SampleMean, tr.Decision.Target)
	// Output:
	// stream 2 triggered (mean 2.50s > target 0.60s)
}

// TestFleetJournalMatchesMonitor checks that a one-stream fleet and a
// Monitor over that class's reference detector journal the same record
// sequence for the same values, non-finite ones included: one writer
// emits the record group of every detector path. Kinds, values,
// decision payloads, fault classes and committed baselines must match;
// times, stream ids and the trigger ids minted from them may differ,
// and every fleet record but none of the Monitor's carries the
// stream id.
func TestFleetJournalMatchesMonitor(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	classes := fleetClasses()
	classes = append(classes, classes[0])
	classes[2].Name, classes[2].Shift = "web-shift", &rejuv.ShiftConfig{}
	// A steady regime on the (5, 1) baseline, a workload shift to ~13,
	// then a slow aging ramp, with non-finite values sprinkled in.
	var values []float64
	faults := 0
	for i := 0; i < 240; i++ {
		v := 4 + 2*math.Mod(float64(i)*0.618034, 1)
		if i >= 80 {
			v += 8
		}
		if i >= 120 {
			v += float64(i-120) * 0.1
		}
		switch i % 37 {
		case 0:
			v = nan
		case 11:
			v = inf
		case 23:
			v = -inf
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			faults++
		}
		values = append(values, v)
	}
	const stream = 7
	for _, policy := range []rejuv.Hygiene{rejuv.HygieneReject, rejuv.HygieneClamp} {
		for _, class := range classes {
			name := fmt.Sprintf("%v/%s", policy, class.Name)
			var fb, mb bytes.Buffer
			now := func() time.Time { return time.Unix(0, 0) }
			f, err := rejuv.NewFleet(rejuv.FleetConfig{
				Classes: []rejuv.StreamClass{class},
				Hygiene: policy,
				Now:     now,
				Journal: rejuv.NewJournalWriter(&fb, rejuv.JournalMeta{}),
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := f.OpenStream(stream, class.Name); err != nil {
				t.Fatal(err)
			}
			det, err := class.Detector()
			if err != nil {
				t.Fatal(err)
			}
			m, err := rejuv.NewMonitor(rejuv.MonitorConfig{
				Detector:  det,
				OnTrigger: func(rejuv.Trigger) {},
				Hygiene:   policy,
				Now:       now,
				Journal:   rejuv.NewJournalWriter(&mb, rejuv.JournalMeta{}),
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range values {
				f.ObserveBatch([]rejuv.StreamObs{{Stream: stream, Value: v}})
				m.Observe(v)
			}
			f.Close()

			frecs, mrecs := readJournal(t, fb.Bytes()), readJournal(t, mb.Bytes())
			if len(frecs) == 0 || frecs[0].Kind != rejuv.JournalKindStreamOpen {
				t.Fatalf("%s: fleet journal does not open with its stream", name)
			}
			frecs = frecs[1:]
			if len(frecs) != len(mrecs) {
				t.Fatalf("%s: fleet wrote %d records after the open, Monitor %d", name, len(frecs), len(mrecs))
			}
			kinds := map[rejuv.JournalKind]int{}
			for i := range frecs {
				fr, mr := frecs[i], mrecs[i]
				kinds[fr.Kind]++
				if fr.Stream != stream || mr.Stream != 0 {
					t.Fatalf("%s: record %d (%v) on streams %d and %d, want %d and 0", name, i, fr.Kind, fr.Stream, mr.Stream, stream)
				}
				fr.Time, mr.Time, fr.Seq, mr.Seq = 0, 0, 0, 0
				fr.Stream, fr.TriggerID, mr.TriggerID = 0, 0, 0
				if fmt.Sprintf("%#v", fr) != fmt.Sprintf("%#v", mr) {
					t.Fatalf("%s: record %d differs:\nfleet   %#v\nmonitor %#v", name, i, fr, mr)
				}
			}
			if kinds[rejuv.JournalKindFault] != faults || kinds[rejuv.JournalKindDecision] == 0 {
				t.Errorf("%s: journal kinds %v, want %d faults and some decisions", name, kinds, faults)
			}
			if class.Shift != nil && kinds[rejuv.JournalKindRebaseline] == 0 {
				t.Errorf("%s: the workload shift committed no rebaseline", name)
			}
		}
	}
}

// readJournal decodes every record of a journal.
func readJournal(t *testing.T, b []byte) []rejuv.JournalRecord {
	t.Helper()
	jr, err := rejuv.NewJournalReader(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	recs, err := jr.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	return recs
}
