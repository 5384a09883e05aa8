package main

import (
	"bufio"
	"fmt"
	"os"
	"time"

	"rejuv/internal/core"
	"rejuv/internal/fleet"
	"rejuv/internal/journal"
	"rejuv/internal/xrand"
)

// fleetOpts parameterizes the -fleet mode: a synthetic fleet of
// response-time streams, a deterministic fraction of which degrade
// mid-run, driven through the batched fleet engine.
type fleetOpts struct {
	streams       int
	rounds        int
	batch         int
	aging         float64
	seed          uint64
	hygiene       core.Hygiene
	journalPath   string
	journalFormat string
}

// fleetClasses is the class mix of the synthetic fleet: one class per
// paper algorithm, so one run shows the detection-latency trade-off
// between them. All share the SLA baseline (mean 5 s, sd 1 s).
func fleetClasses() []fleet.ClassConfig {
	base := core.Baseline{Mean: 5, StdDev: 1}
	return []fleet.ClassConfig{
		{Name: "web-sraa", Family: fleet.FamilySRAA, SampleSize: 4, Buckets: 3, Depth: 2, Baseline: base},
		{Name: "db-saraa", Family: fleet.FamilySARAA, SampleSize: 8, Buckets: 3, Depth: 2, Baseline: base},
		{Name: "cache-clta", Family: fleet.FamilyCLTA, SampleSize: 4, Quantile: 4, Baseline: base},
	}
}

// classLabel renders a class the way spec labels read elsewhere in the
// CLI.
func classLabel(c fleet.ClassConfig) string {
	switch c.Family {
	case fleet.FamilyCLTA:
		return fmt.Sprintf("CLTA (n=%d, q=%.1f)", c.SampleSize, c.Quantile)
	case fleet.FamilySARAA:
		return fmt.Sprintf("SARAA (n=%d, K=%d, D=%d)", c.SampleSize, c.Buckets, c.Depth)
	default:
		return fmt.Sprintf("SRAA (n=%d, K=%d, D=%d)", c.SampleSize, c.Buckets, c.Depth)
	}
}

// virtualClock is the engine clock of the fleet demo: it advances one
// microsecond per reading, so triggers, cooldowns and journal
// timestamps are reproducible while wall time is measured separately.
type virtualClock struct{ t time.Time }

func (c *virtualClock) now() time.Time {
	c.t = c.t.Add(time.Microsecond)
	return c.t
}

// runFleet is the -fleet mode: open N streams over the three demo
// classes, feed every stream once per round in id order (so detection
// latency is measured in rounds = observations per stream), degrade a
// deterministic subset mid-run, and report throughput, detections and
// per-class detection latency.
func runFleet(o fleetOpts) {
	classes := fleetClasses()

	var jw *journal.Writer
	var journalBuf *bufio.Writer
	var journalFile *os.File
	if o.journalPath != "" {
		meta := journal.Meta{
			CreatedBy: "rejuvsim",
			Detector:  "fleet (web-sraa, db-saraa, cache-clta)",
			Seed:      o.seed,
			Notes:     fmt.Sprintf("fleet=%d rounds=%d aging=%.4g", o.streams, o.rounds, o.aging),
		}
		f, err := os.Create(o.journalPath)
		fatalIf(err)
		journalFile = f
		journalBuf = bufio.NewWriter(f)
		switch o.journalFormat {
		case "binary":
			jw = journal.NewWriter(journalBuf, meta)
		case "jsonl":
			jw = journal.NewJSONWriter(journalBuf, meta)
		default:
			fatalIf(fmt.Errorf("unknown -journal-format %q (want binary or jsonl)", o.journalFormat))
		}
	}

	clock := &virtualClock{t: time.Unix(0, 0)}
	depth := o.streams
	if depth > 1<<16 {
		depth = 1 << 16
	}
	eng, err := fleet.New(fleet.Config{
		Classes:    classes,
		Cooldown:   time.Hour, // virtual: each degraded stream triggers once
		Hygiene:    o.hygiene,
		Now:        clock.now,
		Journal:    jw,
		QueueDepth: depth,
	})
	fatalIf(err)
	defer eng.Close()

	perClass := make([]int, len(classes))
	for i := 0; i < o.streams; i++ {
		ci := i % len(classes)
		fatalIf(eng.OpenStream(fleet.StreamID(i+1), classes[ci].Name))
		perClass[ci]++
	}

	// Every stride-th stream degrades: at the onset round its response
	// time steps up by 4 s and then ramps 0.1 s per round, the paper's
	// soft aging shape.
	stride := o.streams + 1 // no aging
	if o.aging > 0 {
		stride = int(1 / o.aging)
		if stride < 1 {
			stride = 1
		}
	}
	onset := o.rounds / 5
	agingSet := make([]bool, o.streams+1)
	agingCount := 0
	for id := stride; id <= o.streams; id += stride {
		agingSet[id] = true
		agingCount++
	}

	fmt.Printf("fleet: %d streams over %d classes, %d rounds (1 obs/stream/round), batch %d\n",
		o.streams, len(classes), o.rounds, o.batch)
	for ci, c := range classes {
		fmt.Printf("  %-11s %*d streams  %s\n", c.Name, 7, perClass[ci], classLabel(c))
	}
	if agingCount > 0 {
		fmt.Printf("aging: %d streams step +4.0 s then +0.1 s/round from round %d\n", agingCount, onset)
	}

	// Trigger accounting, drained after every batch so the bounded queue
	// never fills: first trigger per aging stream gives its detection
	// latency; triggers on healthy streams are false positives.
	firstTrigger := make([]int, o.streams+1) // round+1 of first trigger; 0 = none
	spurious := 0
	drain := func(round int) {
		for {
			select {
			case tr := <-eng.Triggers():
				if firstTrigger[tr.Stream] == 0 {
					firstTrigger[tr.Stream] = round + 1
					if !agingSet[tr.Stream] {
						spurious++
					}
				}
			default:
				return
			}
		}
	}

	rng := xrand.NewStream(o.seed, 1)
	batch := make([]fleet.StreamObs, 0, o.batch)
	total := 0
	start := time.Now()
	for round := 0; round < o.rounds; round++ {
		for id := 1; id <= o.streams; id++ {
			v := 5 + (2*rng.Float64() - 1) // healthy: uniform on [4, 6]
			if agingSet[id] && round >= onset {
				v += 4 + 0.1*float64(round-onset)
			}
			batch = append(batch, fleet.StreamObs{Stream: fleet.StreamID(id), Value: v})
			if len(batch) == o.batch {
				eng.ObserveBatch(batch)
				total += len(batch)
				batch = batch[:0]
				drain(round)
			}
		}
		if len(batch) > 0 { // round boundary: latency stays in whole rounds
			eng.ObserveBatch(batch)
			total += len(batch)
			batch = batch[:0]
		}
		drain(round)
	}
	elapsed := time.Since(start)

	detected := 0
	latency := newLatencyTally(len(classes))
	for id := 1; id <= o.streams; id++ {
		if !agingSet[id] || firstTrigger[id] == 0 {
			continue
		}
		detected++
		latency.add((id-1)%len(classes), firstTrigger[id]-1-onset)
	}

	st := eng.Stats()
	fmt.Printf("\ningested %d observations in %v (%s)\n",
		total, elapsed.Round(time.Millisecond), obsRate(total, elapsed))
	fmt.Printf("triggers: %d of %d aging streams detected, %d spurious, %d suppressed repeats, %d dropped\n",
		detected, agingCount, spurious, st.Suppressed, st.DroppedTriggers)
	if detected > 0 {
		fmt.Printf("detection latency (rounds after onset): mean %.1f  min %d  max %d\n",
			latency.mean(), latency.min, latency.max)
		for ci, c := range classes {
			if latency.n[ci] > 0 {
				fmt.Printf("  %-11s mean %5.1f rounds over %d detections\n",
					c.Name, latency.classMean(ci), latency.n[ci])
			}
		}
	}

	if jw != nil {
		fatalIf(jw.Err())
		fatalIf(journalBuf.Flush())
		fatalIf(journalFile.Close())
		fmt.Printf("journal: %s (%d records, %s), verifying replay... ", o.journalPath, jw.Seq(), o.journalFormat)
		verifyFleetJournal(o.journalPath, classes)
	}
}

// latencyTally accumulates detection latencies overall and per class.
type latencyTally struct {
	sum, count int
	min, max   int
	n          []int
	classSum   []int
}

func newLatencyTally(nclasses int) *latencyTally {
	return &latencyTally{min: 1 << 30, n: make([]int, nclasses), classSum: make([]int, nclasses)}
}

func (l *latencyTally) add(class, rounds int) {
	l.sum += rounds
	l.count++
	if rounds < l.min {
		l.min = rounds
	}
	if rounds > l.max {
		l.max = rounds
	}
	l.n[class]++
	l.classSum[class] += rounds
}

func (l *latencyTally) mean() float64 { return float64(l.sum) / float64(l.count) }

func (l *latencyTally) classMean(c int) float64 { return float64(l.classSum[c]) / float64(l.n[c]) }

// obsRate renders a throughput in observations per second.
func obsRate(obs int, elapsed time.Duration) string {
	rate := float64(obs) / elapsed.Seconds()
	switch {
	case rate >= 1e6:
		return fmt.Sprintf("%.1fM obs/s", rate/1e6)
	case rate >= 1e3:
		return fmt.Sprintf("%.0fk obs/s", rate/1e3)
	}
	return fmt.Sprintf("%.0f obs/s", rate)
}

// verifyFleetJournal replays the recorded journal through fresh
// reference detectors — the external proof that the fleet fast path
// made exactly the decisions the paper's algorithms prescribe.
func verifyFleetJournal(path string, classes []fleet.ClassConfig) {
	byName := make(map[string]fleet.ClassConfig, len(classes))
	for _, c := range classes {
		byName[c.Name] = c
	}
	f, err := os.Open(path)
	fatalIf(err)
	defer f.Close()
	jr, err := journal.NewReader(bufio.NewReader(f))
	fatalIf(err)
	report, err := journal.Replay(jr, func(class string) (core.Detector, error) {
		c, ok := byName[class]
		if !ok {
			return nil, fmt.Errorf("unknown class %q", class)
		}
		return c.Detector()
	})
	fatalIf(err)
	if !report.Identical() {
		fatalIf(fmt.Errorf("fleet journal failed replay verification: %v", report.Mismatch))
	}
	fmt.Printf("identical (%d streams, %d decisions)\n", report.Streams, report.Decisions)
}
