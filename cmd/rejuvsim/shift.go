package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"

	"rejuv/internal/core"
	"rejuv/internal/ecommerce"
	"rejuv/internal/experiment"
	"rejuv/internal/journal"
)

// Workload-shift demo mode (-shift): the arrival rate moves because the
// workload legitimately changed — a diurnal cycle, a flash crowd, a
// ramp to a new plateau — while the aging mechanisms stay off. The same
// congested-but-healthy run is driven through a bare detector, which
// condemns the congestion and rejuvenates, and through the shift-aware
// wrapper (core.Rebase), which reclassifies it as workload and commits
// a new baseline. The shift-aware run is journaled and verified by
// replay; with -journal the journal is kept for rejuvtrace.

// shiftOpts carries the -shift flags.
type shiftOpts struct {
	shape         string
	factor        float64
	load          float64
	txns          int64
	seed          uint64
	journalPath   string
	journalFormat string
}

// shiftShape builds the workload profile for a -shift name. The
// durations are fixed so the demo narrative is reproducible; the peak
// factor comes from -shift-factor.
func shiftShape(name string, factor float64) (*ecommerce.WorkloadShape, string, error) {
	switch name {
	case "diurnal":
		return ecommerce.DiurnalWorkload(2000, factor, 20),
			fmt.Sprintf("diurnal cycle (period 2000 s, peak factor %.4g)", factor), nil
	case "flash":
		return ecommerce.FlashCrowdWorkload(500, 2000, factor),
			fmt.Sprintf("flash crowd (t=500 s for 2000 s, factor %.4g)", factor), nil
	case "ramp":
		return ecommerce.RampPlateauWorkload(500, 1500, 10, factor),
			fmt.Sprintf("ramp to plateau (t=500 s over 1500 s, factor %.4g)", factor), nil
	}
	return nil, "", fmt.Errorf("unknown -shift shape %q (want diurnal, flash or ramp)", name)
}

// runShiftDemo executes the demo and prints the bare-versus-rebased
// comparison plus the rebaseline timeline.
func runShiftDemo(opts shiftOpts) {
	shape, desc, err := shiftShape(opts.shape, opts.factor)
	fatalIf(err)

	lambda := opts.load * 0.2
	// The scenario detector: a CLTA sensitive enough to notice sustained
	// congestion, judged against the paper's SLA baseline. The shift
	// layer is retuned from the telemetry defaults for queueing data:
	// response times are exponential-tailed (not Gaussian), so the
	// change-point needs more slack to not false-fire on the healthy
	// tail, a wider run boundary because congestion builds over many
	// transactions rather than stepping abruptly, and a longer relearn
	// so the heavy-tailed spread is estimated decently.
	spec := experiment.Spec{
		Algorithm: experiment.CLTA, N: 25, Quantile: 1.96,
		Baseline: experiment.PaperBaseline,
		Shift:    &core.ShiftConfig{Slack: 0.75, Threshold: 8, MaxShiftRun: 80, Relearn: 64},
	}
	fmt.Printf("workload-shift demo: %s  lambda=%.3g/s (load %.4g CPUs), %d transactions, seed %d\n",
		desc, lambda, opts.load, opts.txns, opts.seed)
	fmt.Printf("detector: %s  baseline mean=%.4g sd=%.4g  (aging mechanisms off: the system is healthy)\n\n",
		spec.Label(), spec.Baseline.Mean, spec.Baseline.StdDev)

	run := func(s experiment.Spec, jw *journal.Writer) ecommerce.Result {
		det, err := s.NewDetector()
		fatalIf(err)
		m, err := ecommerce.New(ecommerce.Config{
			ArrivalRate:     lambda,
			Transactions:    opts.txns,
			DisableGC:       true,
			DisableOverhead: true,
			Workload:        shape,
			Seed:            opts.seed,
			Stream:          1,
		}, det)
		fatalIf(err)
		if jw != nil {
			jw.RepStart(0, 1, opts.seed, 1)
			m.Journal(jw)
		}
		res, err := m.Run()
		fatalIf(err)
		return res
	}

	specJSON, err := json.Marshal(spec)
	fatalIf(err)
	var buf bytes.Buffer
	jw := newJournal(&buf, opts.journalFormat, journal.Meta{
		CreatedBy: "rejuvsim",
		Detector:  spec.Label(),
		Spec:      string(specJSON),
		Seed:      opts.seed,
		Notes:     fmt.Sprintf("shift=%s factor=%.4g load=%.4g txns=%d", opts.shape, opts.factor, opts.load, opts.txns),
	})
	bare := run(bareSpec(spec), nil)
	reb := run(spec, jw)
	fatalIf(jw.Err())

	fmt.Printf("bare %-28s %3d rejuvenations, %5d transactions lost\n",
		bareSpec(spec).Label()+":", bare.Rejuvenations, bare.Lost)
	fmt.Printf("shift-aware %-21s %3d rejuvenations, %5d transactions lost, %d rebaselines\n\n",
		spec.Label()+":", reb.Rejuvenations, reb.Lost, reb.Rebaselines)

	printRebaselineTimeline(&buf)

	jr, err := journal.NewReader(bytes.NewReader(buf.Bytes()))
	fatalIf(err)
	rep, err := journal.Replay(jr, func(string) (core.Detector, error) { return spec.NewDetector() })
	fatalIf(err)
	if !rep.Identical() {
		fatalIf(fmt.Errorf("shift-aware journal diverged under replay: %v", rep.Mismatch))
	}
	fmt.Printf("replay: %d observations, %d decisions, %d rebaselines verified byte-identical\n",
		rep.Observations, rep.Decisions, rep.Rebaselines)

	if opts.journalPath != "" {
		fatalIf(os.WriteFile(opts.journalPath, buf.Bytes(), 0o644))
		fmt.Printf("journal: %s (%d records, %s)\n", opts.journalPath, jw.Seq(), opts.journalFormat)
	}
}

// bareSpec strips the shift layer for the comparison run.
func bareSpec(s experiment.Spec) experiment.Spec {
	s.Shift = nil
	return s
}

// printRebaselineTimeline lists every committed rebaseline of the
// journaled shift-aware run.
func printRebaselineTimeline(buf *bytes.Buffer) {
	jr, err := journal.NewReader(bytes.NewReader(buf.Bytes()))
	fatalIf(err)
	records, err := jr.ReadAll()
	fatalIf(err)
	n := 0
	for _, r := range records {
		if r.Kind != journal.KindRebaseline {
			continue
		}
		n++
		fmt.Printf("  rebaseline #%d  t=%10.4g s  baseline -> mean=%.4g sd=%.4g\n",
			n, r.Time, r.BaseMean, r.BaseStdDev)
	}
	if n == 0 {
		fmt.Println("  (no rebaselines committed)")
	}
	fmt.Println()
}
