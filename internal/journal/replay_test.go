package journal_test

// Replay determinism, the acceptance test of the flight recorder: for
// every detector family, journaling a simulation run and replaying the
// journal through a freshly built detector must reproduce the decision
// stream byte for byte, on several seeds, regardless of GOMAXPROCS.

import (
	"bytes"
	"math"
	"runtime"
	"strings"
	"testing"

	"rejuv/internal/core"
	"rejuv/internal/ecommerce"
	"rejuv/internal/journal"
)

// single adapts a single-detector factory to Replay's class-keyed
// factory.
func single(factory func() (core.Detector, error)) func(string) (core.Detector, error) {
	return func(string) (core.Detector, error) { return factory() }
}

// replayCase pairs a detector family with its factory. The factory is
// used both to build the recording detector and, independently, the
// replaying ones — mirroring how a debugging session reconstructs the
// detector from the journal's spec.
type replayCase struct {
	name    string
	factory func() (core.Detector, error)
}

// replayCases covers all eight detector families of the core package.
func replayCases() []replayCase {
	base := core.Baseline{Mean: 5, StdDev: 5}
	return []replayCase{
		{"SRAA", func() (core.Detector, error) {
			return core.NewSRAA(core.SRAAConfig{SampleSize: 2, Buckets: 5, Depth: 3, Baseline: base})
		}},
		{"SARAA", func() (core.Detector, error) {
			return core.NewSARAA(core.SARAAConfig{InitialSampleSize: 2, Buckets: 5, Depth: 3, Baseline: base})
		}},
		{"Static", func() (core.Detector, error) { // SRAA with n=1, the paper's static algorithm
			return core.NewSRAA(core.SRAAConfig{SampleSize: 1, Buckets: 5, Depth: 3, Baseline: base})
		}},
		{"CLTA", func() (core.Detector, error) {
			return core.NewCLTA(core.CLTAConfig{SampleSize: 10, Quantile: 1.645, Baseline: base})
		}},
		{"Shewhart", func() (core.Detector, error) {
			return core.NewShewhart(3, base)
		}},
		{"EWMA", func() (core.Detector, error) {
			return core.NewEWMA(0.2, 3, base)
		}},
		{"CUSUM", func() (core.Detector, error) {
			return core.NewCUSUM(0.5, 5, base)
		}},
		{"Adaptive", func() (core.Detector, error) {
			return core.NewAdaptive(50, func(b core.Baseline) (core.Detector, error) {
				return core.NewSRAA(core.SRAAConfig{SampleSize: 2, Buckets: 5, Depth: 3, Baseline: b})
			})
		}},
	}
}

// recordReplications runs one model replication per seed, all into a
// single journal framed by RepStart records, and returns the encoded
// journal. A fresh detector is built per replication, exactly what
// Replay reconstructs.
func recordReplications(t *testing.T, tc replayCase, seeds []uint64) []byte {
	t.Helper()
	var buf bytes.Buffer
	jw := journal.NewWriter(&buf, journal.Meta{
		CreatedBy: "replay_test",
		Detector:  tc.name,
	})
	for rep, seed := range seeds {
		det, err := tc.factory()
		if err != nil {
			t.Fatalf("%s: factory: %v", tc.name, err)
		}
		m, err := ecommerce.New(ecommerce.Config{
			ArrivalRate:  3.0, // load 0.94: aging bites, triggers happen
			Transactions: 3000,
			Seed:         seed,
			Stream:       uint64(rep),
		}, det)
		if err != nil {
			t.Fatalf("%s: model: %v", tc.name, err)
		}
		jw.RepStart(0, rep, seed, uint64(rep))
		m.Journal(jw)
		if _, err := m.Run(); err != nil {
			t.Fatalf("%s: run: %v", tc.name, err)
		}
	}
	if err := jw.Err(); err != nil {
		t.Fatalf("%s: journal writer: %v", tc.name, err)
	}
	return buf.Bytes()
}

// TestReplayDeterminismAllDetectors is the determinism proof required
// of the flight recorder: live vs replayed Decision streams are
// byte-identical for all eight detector families on three seeds each.
func TestReplayDeterminismAllDetectors(t *testing.T) {
	seeds := []uint64{1, 2, 3}
	for _, tc := range replayCases() {
		t.Run(tc.name, func(t *testing.T) {
			data := recordReplications(t, tc, seeds)
			jr, err := journal.NewReader(bytes.NewReader(data))
			if err != nil {
				t.Fatalf("NewReader: %v", err)
			}
			rep, err := journal.Replay(jr, single(tc.factory))
			if err != nil {
				t.Fatalf("Replay: %v", err)
			}
			if !rep.Identical() {
				t.Fatalf("replay diverged: %v", rep.Mismatch.Error())
			}
			if rep.Reps != len(seeds) {
				t.Errorf("replayed %d replications, want %d", rep.Reps, len(seeds))
			}
			if rep.Observations == 0 || rep.Decisions == 0 {
				t.Errorf("vacuous replay: %d observations, %d decisions", rep.Observations, rep.Decisions)
			}
			t.Logf("%s: %d observations, %d decisions, %d triggers, %d resets — byte-identical",
				tc.name, rep.Observations, rep.Decisions, rep.Triggers, rep.Resets)
		})
	}
}

// TestReplayDetectsTamperedJournal makes sure the verifier is not
// vacuously green: flipping one decision's sample-mean bit must be
// reported as a divergence.
func TestReplayDetectsTamperedJournal(t *testing.T) {
	tc := replayCases()[0] // SRAA
	data := recordReplications(t, tc, []uint64{1})

	// Decode, corrupt the first decision record, re-encode.
	jr, err := journal.NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	recs, err := jr.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	tampered := false
	var buf bytes.Buffer
	jw := journal.NewWriter(&buf, jr.Meta())
	for _, r := range recs {
		if !tampered && r.Kind == journal.KindDecision {
			r.SampleMean += 0.25
			tampered = true
		}
		jw.Record(r)
	}
	if !tampered {
		t.Fatal("journal had no decision records to tamper with")
	}

	jr2, err := journal.NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := journal.Replay(jr2, single(tc.factory))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Identical() {
		t.Fatal("replay verifier accepted a tampered journal")
	}
}

// TestReplayJournalIdenticalAcrossGOMAXPROCS re-records the same
// configuration under GOMAXPROCS=1 and under the default setting: the
// journals must be byte-identical, pinning that scheduler parallelism
// cannot leak into the virtual-time event order.
func TestReplayJournalIdenticalAcrossGOMAXPROCS(t *testing.T) {
	tc := replayCases()[1] // SARAA, the paper's headline algorithm
	seeds := []uint64{7, 11}

	def := recordReplications(t, tc, seeds)

	prev := runtime.GOMAXPROCS(1)
	single := recordReplications(t, tc, seeds)
	runtime.GOMAXPROCS(prev)

	if !bytes.Equal(def, single) {
		t.Fatalf("journal bytes differ between GOMAXPROCS=%d (%d bytes) and GOMAXPROCS=1 (%d bytes)",
			prev, len(def), len(single))
	}
}

// TestKernelJournaling smoke-tests the verbose kernel layer: with
// JournalKernel attached the journal carries scheduled/fired records
// and still replays cleanly (replay ignores kernel records).
func TestKernelJournaling(t *testing.T) {
	tc := replayCases()[0]
	det, err := tc.factory()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	jw := journal.NewWriter(&buf, journal.Meta{CreatedBy: "replay_test"})
	m, err := ecommerce.New(ecommerce.Config{
		ArrivalRate: 3.0, Transactions: 500, Seed: 5,
	}, det)
	if err != nil {
		t.Fatal(err)
	}
	m.Journal(jw)
	m.JournalKernel(jw)
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if err := jw.Err(); err != nil {
		t.Fatal(err)
	}
	if jw.Count(journal.KindSimScheduled) == 0 || jw.Count(journal.KindSimFired) == 0 {
		t.Fatalf("kernel journaling recorded no kernel events: scheduled=%d fired=%d",
			jw.Count(journal.KindSimScheduled), jw.Count(journal.KindSimFired))
	}
	jr, err := journal.NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := journal.Replay(jr, single(tc.factory))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Identical() {
		t.Fatalf("replay of kernel-journaled run diverged: %v", rep.Mismatch.Error())
	}
}

// TestReplayAllocsPerRecord pins the verifier's allocation budget:
// the reader decodes buffered records in place and copies the rest into
// one reused payload buffer, stream states live by value in the
// verifier's slot pages and decisions are compared field by field, so
// replay allocates nothing that grows with the journal. The fleet case
// interleaves several streams, each with its own pending decision.
func TestReplayAllocsPerRecord(t *testing.T) {
	for _, tc := range []struct {
		name string
		// classes names one fleet stream per entry; none means the
		// single-detector stream 0.
		classes []string
		factory func(class string) (core.Detector, error)
	}{
		{"single", nil, single(replayCases()[0].factory)}, // SRAA
		{"fleet", []string{"sraa", "saraa", "sraa", "saraa"}, journal.FleetFactory},
	} {
		t.Run(tc.name, func(t *testing.T) {
			record := func(n int) (data []byte, records, decisions uint64) {
				var buf bytes.Buffer
				jw := journal.NewWriter(&buf, journal.Meta{})
				ids, classes := []uint64{0}, []string{""}
				if len(tc.classes) > 0 {
					ids, classes = nil, tc.classes
					for i, class := range classes {
						ids = append(ids, uint64(i+1))
						jw.StreamOpen(0, uint64(i+1), class)
					}
				}
				dets := make([]core.Detector, len(classes))
				for i, class := range classes {
					det, err := tc.factory(class)
					if err != nil {
						t.Fatal(err)
					}
					dets[i] = det
				}
				for i := 0; i < n; i++ {
					k := i % len(dets)
					v := float64(i%17) * 0.75 // walks the buckets up and back down
					jw.Observe(float64(i), ids[k], v)
					if d := dets[k].Observe(v); d.Evaluated || d.Triggered {
						jw.Decision(float64(i), ids[k], d, dets[k].(core.Instrumented).Internals(), false, 0)
					}
				}
				if err := jw.Err(); err != nil {
					t.Fatal(err)
				}
				return buf.Bytes(), jw.Seq(), jw.Count(journal.KindDecision)
			}
			allocs := func(data []byte) float64 {
				return testing.AllocsPerRun(5, func() {
					jr, err := journal.NewReader(bytes.NewReader(data))
					if err != nil {
						t.Fatal(err)
					}
					rep, err := journal.Replay(jr, tc.factory)
					if err != nil || !rep.Identical() || rep.Decisions == 0 {
						t.Fatalf("replay: %+v, %v", rep, err)
					}
				})
			}
			short, shortRecs, shortDecs := record(1_000)
			long, longRecs, longDecs := record(10_000)
			extra := allocs(long) - allocs(short)
			// The longer journal may grow the copying path's payload
			// buffer once (a record straddling a buffer refill); a few
			// objects of slack absorb amortized growth elsewhere. The
			// bound does not depend on the journal's length.
			const budget = 4
			if extra > budget {
				t.Errorf("replay allocates %.0f times for %d more records (%d more decisions), want at most %d",
					extra, longRecs-shortRecs, longDecs-shortDecs, budget)
			}
		})
	}
}

func TestReplayFleetIdentical(t *testing.T) {
	for _, format := range []journal.Format{journal.FormatBinary, journal.FormatJSONL} {
		t.Run(format.String(), func(t *testing.T) {
			var buf bytes.Buffer
			var jw *journal.Writer
			if format == journal.FormatBinary {
				jw = journal.NewWriter(&buf, journal.Meta{CreatedBy: "replay_test"})
			} else {
				jw = journal.NewJSONWriter(&buf, journal.Meta{CreatedBy: "replay_test"})
			}
			journal.WriteFleetJournal(t, jw)
			jr, err := journal.NewReader(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatalf("NewReader: %v", err)
			}
			report, err := journal.Replay(jr, journal.FleetFactory)
			if err != nil {
				t.Fatalf("Replay: %v", err)
			}
			if !report.Identical() {
				t.Fatalf("fleet replay diverged: %v", report.Mismatch)
			}
			if report.Streams != 3 || report.Closes != 1 {
				t.Errorf("streams=%d closes=%d, want 3 and 1", report.Streams, report.Closes)
			}
			if report.Observations == 0 || report.Decisions == 0 {
				t.Errorf("replay fed no work: %+v", report)
			}
		})
	}
}

// TestReplayFleetRejectsMalformedStreams walks every stream-level
// mismatch the verifier reports: each row writes a small journal and
// names the reason the replay must stop with.
func TestReplayFleetRejectsMalformedStreams(t *testing.T) {
	// evaluate feeds stream 2 (class sraa, n=2) two observations, so its
	// replayed detector evaluates, and returns the reference decision.
	evaluate := func(t *testing.T, jw *journal.Writer) journal.Record {
		det, err := journal.FleetFactory("sraa")
		if err != nil {
			t.Fatal(err)
		}
		jw.StreamOpen(0, 2, "sraa")
		var d core.Decision
		for i, v := range []float64{6, 7} {
			jw.Observe(float64(i), 2, v)
			d = det.Observe(v)
		}
		r := journal.Record{Kind: journal.KindDecision, Time: 1}
		r.SetDecision(d, det.(core.Instrumented).Internals(), false)
		return r
	}
	cases := []struct {
		name   string
		write  func(t *testing.T, jw *journal.Writer)
		reason string
	}{
		{"double open", func(t *testing.T, jw *journal.Writer) {
			jw.StreamOpen(0, 1, "sraa")
			jw.StreamOpen(0, 1, "sraa")
		}, "stream 1 opened twice"},
		{"close unopened", func(t *testing.T, jw *journal.Writer) {
			jw.StreamClose(0, 1)
		}, "stream 1 closed but never opened"},
		{"observe unopened", func(t *testing.T, jw *journal.Writer) {
			jw.Observe(0, 1, 5)
		}, "observation on unopened stream 1"},
		{"payload diff", func(t *testing.T, jw *journal.Writer) {
			r := evaluate(t, jw)
			r.SampleMean += 0.5
			r.Stream = 2
			jw.Record(r)
		}, "decision payloads differ on stream 2"},
		{"pending at close", func(t *testing.T, jw *journal.Writer) {
			evaluate(t, jw)
			jw.StreamClose(2, 2)
		}, "stream 2 closed while a replayed decision awaited"},
		{"pending at eof", func(t *testing.T, jw *journal.Writer) {
			evaluate(t, jw)
		}, "at end of journal has no recorded counterpart on stream 2"},
		{"tamper", func(t *testing.T, jw *journal.Writer) {
			// Record a full fleet run, flip one decision's trigger flag
			// and rewrite the journal.
			var buf bytes.Buffer
			journal.WriteFleetJournal(t, journal.NewWriter(&buf, journal.Meta{}))
			jr, err := journal.NewReader(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			recs, err := jr.ReadAll()
			if err != nil {
				t.Fatal(err)
			}
			tampered := false
			for _, r := range recs {
				if !tampered && r.Kind == journal.KindDecision && r.Evaluated {
					r.Triggered = !r.Triggered
					tampered = true
				}
				jw.Record(r)
			}
			if !tampered {
				t.Fatal("journal carried no decision to tamper with")
			}
		}, "decision payloads differ on stream"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			jw := journal.NewWriter(&buf, journal.Meta{})
			tc.write(t, jw)
			if err := jw.Err(); err != nil {
				t.Fatal(err)
			}
			jr, err := journal.NewReader(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			report, err := journal.Replay(jr, journal.FleetFactory)
			if err != nil {
				t.Fatal(err)
			}
			if report.Identical() {
				t.Fatal("malformed stream structure replayed as identical")
			}
			if !strings.Contains(report.Mismatch.Reason, tc.reason) {
				t.Errorf("mismatch %q, want it to name %q", report.Mismatch.Reason, tc.reason)
			}
		})
	}
}

// TestReplayStreamLifecycle pins the stream rules shared by single and
// fleet journals: stream 0 opens lazily with the empty class, a
// replication start drops every stream, and a fleet stream that is not
// reopened after it is unknown.
func TestReplayStreamLifecycle(t *testing.T) {
	var classes []string
	factory := func(class string) (core.Detector, error) {
		classes = append(classes, class)
		if class == "" {
			class = "sraa"
		}
		return journal.FleetFactory(class)
	}
	var buf bytes.Buffer
	jw := journal.NewWriter(&buf, journal.Meta{})
	jw.RepStart(0, 1, 1, 1)
	jw.Observe(0, 0, 5)
	jw.StreamOpen(0, 3, "saraa")
	jw.Observe(0, 3, 5)
	jw.RepStart(0, 2, 2, 2)
	jw.Observe(0, 0, 5)
	jw.Observe(0, 3, 5)
	jr, err := journal.NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := journal.Replay(jr, factory)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(classes, ","); got != ",saraa," {
		t.Errorf("factory classes %q, want stream 0, stream 3, then stream 0 again", got)
	}
	if rep.Reps != 2 || rep.Streams != 1 || rep.Observations != 3 {
		t.Errorf("report %+v, want 2 reps, 1 opened stream, 3 observations", rep)
	}
	if rep.Identical() || !strings.Contains(rep.Mismatch.Reason, "observation on unopened stream 3") {
		t.Errorf("stream 3 survived the replication start: %+v", rep.Mismatch)
	}

	t.Run("ids-churn-repstart", func(t *testing.T) {
		var buf bytes.Buffer
		rec := newStreamRecorder(t, &buf)
		const top, maxID = uint64(1) << 63, uint64(math.MaxUint64)
		rec.open(top, "sraa")
		rec.open(maxID, "saraa")
		for i := 0; i < 8; i++ {
			for _, id := range []uint64{0, top, maxID} {
				rec.observe(id, float64(i%5)*1.5, true)
			}
		}
		// Churn: a population of 64 streams out of ids 1..200; each cycle
		// closes the oldest and opens the next id, which was closed
		// earlier, so ids are reopened into recycled slots.
		const population, cycles, idSpace = 64, 10_000, 200
		for i := 0; i < population; i++ {
			rec.open(uint64(i+1), "sraa")
		}
		for c := 0; c < cycles; c++ {
			rec.close(uint64(c%idSpace + 1))
			id := uint64((c+population)%idSpace + 1)
			rec.open(id, "saraa")
			rec.observe(id, 9, true)
			rec.observe(top, 9, true)
		}
		// A replication start drops every stream: reopening each one
		// that was open must not read as a double open, and stream 0
		// must be built afresh.
		rec.jw.RepStart(0, 2, 2, 0)
		reopen := []uint64{top, maxID}
		for c := cycles; c < cycles+population; c++ {
			reopen = append(reopen, uint64(c%idSpace+1))
		}
		for _, id := range reopen {
			rec.open(id, "sraa")
			rec.observe(id, 12, true)
			rec.observe(id, 12, true)
		}
		rec.observe(0, 12, true)
		rec.observe(0, 12, true)

		factoryCalls := map[string]int{}
		rep := rec.replay(func(class string) (core.Detector, error) {
			factoryCalls[class]++
			if class == "" {
				class = "sraa"
			}
			return journal.FleetFactory(class)
		})
		if !rep.Identical() {
			t.Fatalf("replay diverged: %v", rep.Mismatch)
		}
		if want := 2 + population + cycles + len(reopen); rep.Streams != want || rep.Closes != cycles || rep.Reps != 2 {
			t.Errorf("report %+v, want %d opened streams, %d closes, 2 reps", rep, want, cycles)
		}
		if factoryCalls[""] != 2 {
			t.Errorf("stream 0 built %d times, want once per replication", factoryCalls[""])
		}
	})

	t.Run("lowest-waiting", func(t *testing.T) {
		for _, tc := range []struct {
			name, want string
			end        func(*streamRecorder)
		}{
			{"end", "replayed decision at end of journal has no recorded counterpart on stream 3", func(*streamRecorder) {}},
			{"repstart", "replication started while a replayed decision awaited its recorded counterpart on stream 3",
				func(r *streamRecorder) { r.jw.RepStart(0, 2, 2, 0) }},
		} {
			t.Run(tc.name, func(t *testing.T) {
				var buf bytes.Buffer
				rec := newStreamRecorder(t, &buf)
				rec.observe(0, 5, true)
				rec.observe(0, 5, true)
				// Two observations of a sample-size-2 stream leave one
				// replayed decision, unjournaled, pending.
				for _, id := range []uint64{1 << 63, 5, math.MaxUint64, 3, 4} {
					rec.open(id, "sraa")
					rec.observe(id, 7, false)
					rec.observe(id, 7, false)
				}
				tc.end(rec)
				rep := rec.replay(func(class string) (core.Detector, error) {
					if class == "" {
						class = "sraa"
					}
					return journal.FleetFactory(class)
				})
				if rep.Identical() {
					t.Fatal("pending decisions went unreported")
				}
				if rep.Mismatch.Reason != tc.want {
					t.Errorf("mismatch %q, want %q", rep.Mismatch.Reason, tc.want)
				}
			})
		}
	})
}

// streamRecorder writes a fleet-shaped journal the way the fleet engine
// does: each stream steps its own detector and, when asked, journals
// every decision right after its observation.
type streamRecorder struct {
	t    *testing.T
	buf  *bytes.Buffer
	jw   *journal.Writer
	dets map[uint64]core.Detector
}

func newStreamRecorder(t *testing.T, buf *bytes.Buffer) *streamRecorder {
	return &streamRecorder{t: t, buf: buf, jw: journal.NewWriter(buf, journal.Meta{}), dets: map[uint64]core.Detector{}}
}

// open journals a stream open and builds the stream's detector.
func (r *streamRecorder) open(id uint64, class string) {
	det, err := journal.FleetFactory(class)
	if err != nil {
		r.t.Fatal(err)
	}
	r.dets[id] = det
	r.jw.StreamOpen(0, id, class)
}

// close journals a stream close.
func (r *streamRecorder) close(id uint64) {
	delete(r.dets, id)
	r.jw.StreamClose(0, id)
}

// observe journals one observation on id, stream 0 opening lazily with
// an SRAA, and its decision if any and if decide is set.
func (r *streamRecorder) observe(id uint64, v float64, decide bool) {
	det, ok := r.dets[id]
	if !ok && id == 0 {
		det, _ = journal.FleetFactory("sraa")
		r.dets[0] = det
	}
	r.jw.Observe(0, id, v)
	if d := det.Observe(v); decide && (d.Evaluated || d.Triggered) {
		r.jw.Decision(0, id, d, det.(core.Instrumented).Internals(), false, 0)
	}
}

// replay verifies the recorded journal with factory.
func (r *streamRecorder) replay(factory func(string) (core.Detector, error)) journal.ReplayReport {
	r.t.Helper()
	if err := r.jw.Err(); err != nil {
		r.t.Fatal(err)
	}
	jr, err := journal.NewReader(bytes.NewReader(r.buf.Bytes()))
	if err != nil {
		r.t.Fatal(err)
	}
	rep, err := journal.Replay(jr, factory)
	if err != nil {
		r.t.Fatal(err)
	}
	return rep
}
