// Command rejuvtrace inspects flight-recorder journals written by
// rejuvsim -journal, the rejuv library or examples/httpserver: it
// renders an ASCII (or CSV) timeline of the decisions around each
// rejuvenation trigger, aggregates per-phase statistics, verifies the
// journal by deterministic replay, and diffs two journals.
//
// Examples:
//
//	rejuvtrace run.jnl                  timeline around each trigger
//	rejuvtrace -window 16 run.jnl       more context per trigger
//	rejuvtrace -phases run.jnl          per-phase statistics only
//	rejuvtrace -csv run.jnl             machine-readable timeline
//	rejuvtrace -verify run.jnl          replay and verify determinism
//	rejuvtrace -diff a.jnl b.jnl        first divergence between runs
//	rejuvtrace -trigger 0x9a… run.jnl   causality chain of one trigger id
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"

	"rejuv/internal/core"
	"rejuv/internal/experiment"
	"rejuv/internal/journal"
)

func main() {
	var (
		window  = flag.Int("window", 8, "decision records of context shown per trigger")
		csv     = flag.Bool("csv", false, "emit the trigger windows as CSV instead of an ASCII timeline")
		phases  = flag.Bool("phases", false, "print per-phase statistics only")
		verify  = flag.Bool("verify", false, "rebuild the detector from the journal's spec and verify the decision stream by replay")
		diff    = flag.Bool("diff", false, "compare two journals and report the first diverging decision")
		maxEv   = flag.Int("triggers", 0, "show at most this many triggers (0 = all)")
		barCols = flag.Int("bar", 24, "width of the sample-mean bar in the ASCII timeline (0 disables)")
		trigger = flag.String("trigger", "", "render the causality chain of one trigger `id` (decimal or 0x hex)")
	)
	flag.Parse()

	switch {
	case *diff:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-diff needs exactly two journal files, got %d", flag.NArg()))
		}
		runDiff(flag.Arg(0), flag.Arg(1), *window)
	case flag.NArg() != 1:
		fmt.Fprintln(os.Stderr, "usage: rejuvtrace [flags] journal-file")
		flag.PrintDefaults()
		os.Exit(2)
	case *verify:
		runVerify(flag.Arg(0))
	case *trigger != "":
		runTrigger(flag.Arg(0), *trigger, *window)
	default:
		meta, format, records := load(flag.Arg(0))
		a := journal.Analyze(meta, format, records, *window)
		printSummary(a)
		if *phases {
			printPhases(a.Phases())
			return
		}
		events := a.Events
		if *maxEv > 0 && len(events) > *maxEv {
			fmt.Printf("(showing first %d of %d triggers; raise -triggers)\n", *maxEv, len(events))
			events = events[:*maxEv]
		}
		if *csv {
			printCSV(events)
		} else {
			printRebaselines(a.RebaselineEvents)
			for _, ev := range events {
				printTimeline(ev, *barCols)
			}
			printActions(a.Actions)
			printPhases(a.Phases())
		}
	}
}

// load decodes a journal file completely. It tolerates a torn final
// record — a crash mid-write must not make the rest of the flight
// recorder unreadable — and prints a salvage note when bytes were
// dropped.
func load(path string) (journal.Meta, journal.Format, []journal.Record) {
	f, err := os.Open(path)
	fatalIfErr(err)
	defer f.Close()
	jr, err := journal.NewReader(f)
	fatalIfErr(err)
	jr.TolerateTornTail()
	records, err := jr.ReadAll()
	fatalIfErr(err)
	if n := jr.TornBytes(); n > 0 {
		fmt.Fprintf(os.Stderr, "rejuvtrace: note: journal tail was torn; salvaged %d records, dropped %d trailing byte(s)\n",
			len(records), n)
	}
	return jr.Meta(), jr.Format(), records
}

// printSummary renders the journal header and record census.
func printSummary(a journal.Analysis) {
	m := a.Meta
	fmt.Printf("journal: %s", orUnknown(m.Detector))
	if m.CreatedBy != "" {
		fmt.Printf("  (recorded by %s)", m.CreatedBy)
	}
	fmt.Println()
	if m.Notes != "" || m.Seed != 0 {
		fmt.Printf("         seed=%d  %s\n", m.Seed, m.Notes)
	}
	fmt.Printf("%d records, %d reps, %.6g s of virtual time\n", a.Records, a.Reps, a.Duration)
	fmt.Printf("observations %d   decisions %d   triggers %d (+%d suppressed)   resets %d\n",
		a.Observations, a.Decisions, a.Triggers, a.Suppressed, a.Resets)
	fmt.Printf("rejuvenations %d (killed %d)   GCs %d   kernel events %d\n",
		a.Rejuvenations, a.Killed, a.GCs, a.KernelEvents)
	if a.Rebaselines > 0 {
		fmt.Printf("rebaselines %d (workload shifts absorbed without rejuvenating)\n", a.Rebaselines)
	}
	if a.Faults > 0 {
		parts := make([]string, len(a.FaultClasses))
		for i, fc := range a.FaultClasses {
			parts[i] = fmt.Sprintf("%s %d", fc.Class, fc.N)
		}
		fmt.Printf("faults %d   (%s)\n", a.Faults, strings.Join(parts, ", "))
	}
	printSchedCensus(a.Sched)
	fmt.Println()
}

// printSchedCensus renders the scheduling layer's summary: the census
// line, the action-tier mix, the deferral reasons, and the quarantine
// timeline. Silent for journals without a scheduler.
func printSchedCensus(s journal.SchedCensus) {
	if s.Records == 0 {
		return
	}
	fmt.Printf("scheduler %d records: %d enqueued (+%d coalesced), %d deferrals, %d starts, %d completes\n",
		s.Records, s.Enqueues, s.Coalesces, s.Defers, s.Starts, s.Completes)
	if len(s.StartsByTier) > 0 {
		parts := make([]string, len(s.StartsByTier))
		for i, tc := range s.StartsByTier {
			parts[i] = fmt.Sprintf("%s %d", tc.Tier, tc.N)
		}
		fmt.Printf("  action tiers: %s\n", strings.Join(parts, ", "))
	}
	if len(s.DefersByReason) > 0 {
		parts := make([]string, len(s.DefersByReason))
		for i, rc := range s.DefersByReason {
			parts[i] = fmt.Sprintf("%s %d", rc.Reason, rc.N)
		}
		fmt.Printf("  deferral reasons: %s\n", strings.Join(parts, ", "))
	}
	for _, r := range s.QuarantineEvents {
		if r.Kind == journal.KindSchedQuarantine {
			fmt.Printf("  QUARANTINE  t=%.6g s  replica %d  (%s)\n", r.Time, r.Stream, r.Class)
		} else {
			fmt.Printf("  readmitted  t=%.6g s  replica %d\n", r.Time, r.Stream)
		}
	}
}

// printActions renders the actuator retry timeline: one block per
// execution with every attempt, its outcome and the backoff chosen
// after a failure.
func printActions(actions []journal.ActionEvent) {
	if len(actions) == 0 {
		return
	}
	fmt.Printf("actuator executions: %d\n", len(actions))
	for _, ev := range actions {
		verdict := "gave up"
		if ev.Succeeded() {
			verdict = "succeeded"
		}
		id := ""
		if ev.TriggerID != 0 {
			id = fmt.Sprintf("  id=%#x", ev.TriggerID)
		}
		fmt.Printf("action #%d  rep %d  t=%.6g s  %s after %d attempt(s)%s\n",
			ev.Index, ev.Rep, ev.Start, verdict, len(ev.Attempts), id)
		for i, at := range ev.Attempts {
			status := "ok"
			if !at.OK {
				status = "FAIL"
				if at.Class != "" {
					status += "  " + at.Class
				}
			}
			fmt.Printf("  attempt %d  t=%.6g s  %s\n", i+1, at.Time, status)
			if !at.OK && at.Backoff > 0 {
				fmt.Printf("             retry in %.4g s\n", at.Backoff)
			}
		}
		if ev.GaveUp {
			fmt.Printf("  GIVE UP  t=%.6g s  escalated after %d attempt(s)\n", ev.End, len(ev.Attempts))
		}
	}
	fmt.Println()
}

// runTrigger renders the causality chain of one trigger id: the
// observations that fed the decision, the decision, and the actuator
// executions it provoked. Ids are printed by the default timeline
// (id=0x…) and minted deterministically, so a chain seen in one run can
// be looked up in a replay of the same journal. Exit status 1 when no
// record carries the id.
func runTrigger(path, idText string, window int) {
	id, err := strconv.ParseUint(idText, 0, 64)
	if err != nil {
		fatal(fmt.Errorf("bad -trigger id %q: %v", idText, err))
	}
	_, _, records := load(path)
	c, ok := journal.TraceCausality(records, id, window)
	if !ok {
		fatal(fmt.Errorf("no decision in %s carries trigger id %#x", path, id))
	}
	fmt.Printf("trigger id %#x\n", c.TriggerID)
	if c.Stream != 0 {
		class := c.Class
		if class == "" {
			class = "(unknown class)"
		}
		fmt.Printf("stream %d  %s\n", c.Stream, class)
	}
	fmt.Printf("\nobservations (%d, newest last):\n", len(c.Observations))
	for _, r := range c.Observations {
		fmt.Printf("  t=%-10.6g value=%.6g\n", r.Time, r.Value)
	}
	d := c.Decision
	verdict := "TRIGGER"
	if d.Suppressed {
		verdict = "TRIGGER (suppressed by cooldown)"
	}
	fmt.Printf("\ndecision:\n  t=%-10.6g mean=%.6g target=%.6g lvl=%d fill=%d  %s\n",
		d.Time, d.SampleMean, d.Target, d.Level, d.Fill, verdict)
	if len(c.Actions) == 0 {
		fmt.Println("\nactuation: none journaled for this id")
		return
	}
	fmt.Println("\nactuation:")
	for _, ev := range c.Actions {
		verdict := "gave up"
		if ev.Succeeded() {
			verdict = "succeeded"
		}
		fmt.Printf("  execution t=%.6g s  %s after %d attempt(s)\n", ev.Start, verdict, len(ev.Attempts))
		for i, at := range ev.Attempts {
			status := "ok"
			if !at.OK {
				status = "FAIL"
				if at.Class != "" {
					status += "  " + at.Class
				}
			}
			fmt.Printf("    attempt %d  t=%.6g s  %s\n", i+1, at.Time, status)
			if !at.OK && at.Backoff > 0 {
				fmt.Printf("               retry in %.4g s\n", at.Backoff)
			}
		}
		if ev.GaveUp {
			fmt.Printf("    GIVE UP  t=%.6g s  escalated after %d attempt(s)\n", ev.End, len(ev.Attempts))
		}
	}
}

// printRebaselines renders the workload-shift rebaseline timeline: when
// the detector re-anchored its baseline instead of rejuvenating, and to
// what.
func printRebaselines(events []journal.Record) {
	if len(events) == 0 {
		return
	}
	fmt.Printf("rebaselines: %d\n", len(events))
	for i, r := range events {
		stream := ""
		if r.Stream != 0 {
			stream = fmt.Sprintf("  stream %d", r.Stream)
		}
		fmt.Printf("  rebaseline #%d  t=%.6g s  baseline -> mean=%.6g sd=%.6g%s\n",
			i+1, r.Time, r.BaseMean, r.BaseStdDev, stream)
	}
	fmt.Println()
}

// printTimeline renders one trigger's context window as an ASCII table
// with a sample-mean bar scaled to the window's maximum.
func printTimeline(ev journal.TriggerEvent, barCols int) {
	fmt.Printf("trigger #%d  rep %d  t=%.6g s  (seq %d)", ev.Index, ev.Rep, ev.Time, ev.Seq)
	if ev.Stream != 0 {
		fmt.Printf("  stream %d", ev.Stream)
	}
	if ev.TriggerID != 0 {
		fmt.Printf("  id=%#x", ev.TriggerID)
	}
	fmt.Println()
	if !math.IsNaN(ev.TimeToTrigger) {
		fmt.Printf("  first exceedance t=%.6g s -> trigger after %.6g s\n", ev.FirstExceedance, ev.TimeToTrigger)
	}
	if ev.Suppressed > 0 || ev.GCs > 0 {
		fmt.Printf("  in phase: %d suppressed trigger(s), %d full GC(s)\n", ev.Suppressed, ev.GCs)
	}
	if len(ev.Dwell) > 0 {
		parts := make([]string, len(ev.Dwell))
		for lvl, d := range ev.Dwell {
			parts[lvl] = fmt.Sprintf("L%d %.4gs", lvl, d)
		}
		fmt.Printf("  bucket dwell: %s\n", strings.Join(parts, "  "))
	}
	maxMean := 0.0
	for _, r := range ev.Window {
		if r.SampleMean > maxMean {
			maxMean = r.SampleMean
		}
	}
	fmt.Printf("  %12s %10s %10s %4s %4s  %s\n", "t(s)", "mean", "target", "lvl", "fill", "")
	for _, r := range ev.Window {
		flagStr := ""
		switch {
		case r.Triggered && r.Suppressed:
			flagStr = "TRIGGER (suppressed)"
		case r.Triggered:
			flagStr = "TRIGGER"
		}
		bar := ""
		if barCols > 0 && maxMean > 0 && r.SampleMean > 0 {
			n := int(r.SampleMean / maxMean * float64(barCols))
			if n > barCols {
				n = barCols
			}
			bar = strings.Repeat("#", n) + " "
		}
		fmt.Printf("  %12.6g %10.4g %10.4g %4d %4d  %s%s\n",
			r.Time, r.SampleMean, r.Target, r.Level, r.Fill, bar, flagStr)
	}
	fmt.Println()
}

// printCSV renders the trigger windows as CSV, one row per decision.
func printCSV(events []journal.TriggerEvent) {
	fmt.Println("trigger,rep,seq,t,sample_mean,target,level,fill,triggered,suppressed")
	for _, ev := range events {
		for _, r := range ev.Window {
			fmt.Printf("%d,%d,%d,%.9g,%.9g,%.9g,%d,%d,%t,%t\n",
				ev.Index, ev.Rep, r.Seq, r.Time, r.SampleMean, r.Target,
				r.Level, r.Fill, r.Triggered, r.Suppressed)
		}
	}
}

// printPhases renders the aggregate phase statistics.
func printPhases(ps journal.PhaseStats) {
	fmt.Printf("phases: %d trigger(s), %d suppressed in total\n", ps.Triggers, ps.SuppressedTotal)
	if ps.TimeToTrigger.N > 0 {
		t := ps.TimeToTrigger
		fmt.Printf("time from first exceedance to trigger: min %.6g s  mean %.6g s  max %.6g s  (n=%d)\n",
			t.Min, t.Mean, t.Max, t.N)
	}
	if len(ps.DwellMean) > 0 {
		parts := make([]string, len(ps.DwellMean))
		for lvl, d := range ps.DwellMean {
			parts[lvl] = fmt.Sprintf("L%d %.4gs", lvl, d)
		}
		fmt.Printf("mean bucket dwell per phase: %s\n", strings.Join(parts, "  "))
	}
}

// runVerify replays the journal against a detector rebuilt from its
// embedded spec and reports the verdict. Exit status 1 on divergence.
func runVerify(path string) {
	f, err := os.Open(path)
	fatalIfErr(err)
	defer f.Close()
	jr, err := journal.NewReader(f)
	fatalIfErr(err)
	meta := jr.Meta()
	if meta.Spec == "" {
		fatal(fmt.Errorf("journal %s has no embedded detector spec; record it with rejuvsim -journal", path))
	}
	var spec experiment.Spec
	fatalIfErr(json.Unmarshal([]byte(meta.Spec), &spec))
	factory := func(string) (core.Detector, error) {
		det, err := spec.NewDetector()
		if err == nil && det == nil {
			return nil, fmt.Errorf("spec %q builds no detector", spec.Label())
		}
		return det, err
	}
	rep, err := journal.Replay(jr, factory)
	fatalIfErr(err)
	fmt.Printf("replayed %s: %d reps, %d observations, %d decisions, %d triggers, %d resets\n",
		spec.Label(), rep.Reps, rep.Observations, rep.Decisions, rep.Triggers, rep.Resets)
	if rep.Rebaselines > 0 {
		fmt.Printf("rebaselines verified: %d\n", rep.Rebaselines)
	}
	if rep.Identical() {
		fmt.Println("verdict: decision stream is byte-identical under replay")
		return
	}
	fmt.Println("verdict: DIVERGED:", rep.Mismatch.Error())
	os.Exit(1)
}

// runDiff compares two journals and reports where they part ways.
func runDiff(pathA, pathB string, window int) {
	metaA, _, recsA := load(pathA)
	metaB, _, recsB := load(pathB)
	rep := journal.Diff(metaA, recsA, metaB, recsB, window)
	fmt.Printf("A: %s  %d decisions, %d triggers, %.6g s\n",
		orUnknown(metaA.Detector), rep.A.Decisions, rep.A.Triggers, rep.A.Duration)
	fmt.Printf("B: %s  %d decisions, %d triggers, %.6g s\n",
		orUnknown(metaB.Detector), rep.B.Decisions, rep.B.Triggers, rep.B.Duration)
	fmt.Printf("%d leading decisions identical\n", rep.CommonDecisions)
	if rep.Divergence == nil {
		if rep.A.Decisions == rep.B.Decisions {
			fmt.Println("journals agree on every decision")
		} else {
			fmt.Println("one journal is a strict prefix of the other; no divergence within the common prefix")
		}
		return
	}
	d := rep.Divergence
	fmt.Printf("first divergence at decision ordinal %d:\n", d.Ordinal)
	fmt.Printf("  A: %s\n  B: %s\n", diffLine(d.A), diffLine(d.B))
	os.Exit(1)
}

// diffLine renders the stream and every detector-owned field of a
// decision record, so the divergence is visible even when it sits in
// the sample-size or chart-statistic internals.
func diffLine(r journal.Record) string {
	stream := ""
	if r.Stream != 0 {
		stream = fmt.Sprintf("stream=%d ", r.Stream)
	}
	return stream + fmt.Sprintf("t=%.9g mean=%.9g target=%.9g lvl=%d fill=%d n=%d/%d stat=%.9g triggered=%t",
		r.Time, r.SampleMean, r.Target, r.Level, r.Fill,
		r.SampleFill, r.SampleSize, r.Statistic, r.Triggered)
}

// orUnknown substitutes a placeholder for an empty detector label.
func orUnknown(s string) string {
	if s == "" {
		return "(unknown detector)"
	}
	return s
}

// fatalIfErr aborts on err.
func fatalIfErr(err error) {
	if err != nil {
		fatal(err)
	}
}

// fatal prints err and exits.
func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rejuvtrace:", err)
	os.Exit(1)
}
