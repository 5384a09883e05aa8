package main

import (
	"bytes"
	"fmt"
	"os"
	"sort"

	"rejuv/internal/core"
	"rejuv/internal/ecommerce"
	"rejuv/internal/experiment"
	"rejuv/internal/journal"
	"rejuv/internal/sched"
)

// Cluster demo mode (-cluster): the same aging cluster is run under
// the legacy always-full-restart policy (one host down, every action a
// complete restart) and under the cost-aware scheduler (three-tier
// Kijima ladder, capacity floor, deadline-aware deferral, proactive
// partial actions at moderate aging), with identical detectors and
// workload. The scheduled run is journaled and the schedule is
// replay-verified byte-identically, including the capacity-budget
// high-water mark.

// clusterOpts carries the -cluster flags.
type clusterOpts struct {
	hosts       int
	spec        experiment.Spec
	load        float64 // offered CPUs per host
	txns        int64
	seed        uint64
	pause       float64
	leaky       bool
	journalPath string
}

// runClusterDemo executes the comparison and prints the verdict.
func runClusterDemo(opts clusterOpts) {
	if opts.pause <= 0 {
		opts.pause = 30 // a free restart makes the cost comparison vacuous
	}
	lambda := float64(opts.hosts) * opts.load * 0.2

	fmt.Printf("cluster demo: %d hosts, lambda=%.4g/s (%.4g CPUs offered per host), %d transactions, seed %d\n",
		opts.hosts, lambda, opts.load, opts.txns, opts.seed)
	gcNote := "reclaiming GC"
	if opts.leaky {
		gcNote = "leaky GC (only rejuvenation restores the heap)"
	}
	fmt.Printf("detector per host: %s  baseline mean=%.4g sd=%.4g  %s\n\n",
		opts.spec.Label(), opts.spec.Baseline.Mean, opts.spec.Baseline.StdDev, gcNote)

	full := sched.OneDown(opts.hosts, opts.pause)
	part := sched.Scheduled(opts.hosts, opts.pause)
	fmt.Printf("policy A (full):      at most %d host down, every action a full restart (%.4g s pause)\n",
		full.MaxDown, opts.pause)
	fmt.Printf("policy B (scheduled): at most %d host down, %s, capacity floor %.2g, max-defer %.4g s,\n",
		part.MaxDown, tierLadder(part.Tiers), part.CapacityFloor, part.MaxDefer)
	fmt.Printf("                      proactive partial actions from level 3, deadline-aware deferral\n\n")

	resFull, _, _ := runClusterPolicy(opts, full, false, nil, nil)
	var buf bytes.Buffer
	jw := journal.NewWriter(&buf, journal.Meta{
		CreatedBy: "rejuvsim",
		Detector:  opts.spec.Label(),
		Seed:      opts.seed,
		Notes: fmt.Sprintf("cluster=%d load=%.4g txns=%d pause=%.4g leaky=%v",
			opts.hosts, opts.load, opts.txns, opts.pause, opts.leaky),
	})
	tiers := map[string]int{}
	resPart, policy, maxDown := runClusterPolicy(opts, part, true, jw, func(tr sched.Transition) {
		if tr.Op == sched.OpStart {
			tiers[tr.Tier.Name]++
		}
	})
	fatalIf(jw.Err())

	printClusterResult("A full restarts", resFull)
	printClusterResult("B scheduled", resPart)

	fmt.Printf("\naction mix (policy B): %s\n", tierMix(tiers))
	fmt.Printf("capacity budget: max %d host down allowed, observed high-water %d — never exceeded\n",
		policy.MaxDown, maxDown)

	jr, err := journal.NewReader(bytes.NewReader(buf.Bytes()))
	fatalIf(err)
	report, err := journal.ReplaySched(jr, policy)
	fatalIf(err)
	if !report.Identical() {
		fatalIf(fmt.Errorf("scheduled run diverged under replay: %v", report.Mismatch))
	}
	for _, down := range report.MaxDownSeen {
		if down > policy.MaxDown {
			fatalIf(fmt.Errorf("replay saw %d hosts down, budget %d", down, policy.MaxDown))
		}
	}
	fmt.Printf("replay: %d scheduler records (%d starts, %d deferrals, %d coalesces) verified byte-identical, budget respected\n",
		report.Records, report.Starts, report.Defers, report.Coalesces)

	if resPart.Lost < resFull.Lost {
		fmt.Printf("\nscheduled partial rejuvenation lost %d transactions vs %d under full restarts (%.1f%% less)\n",
			resPart.Lost, resFull.Lost, 100*(1-float64(resPart.Lost)/float64(resFull.Lost)))
		fmt.Printf("and completed %d vs %d — the backlog the full-restart policy kills, the scheduled policy serves\n",
			resPart.Completed, resFull.Completed)
	} else {
		fmt.Printf("\nscheduled policy lost %d transactions vs %d under full restarts\n",
			resPart.Lost, resFull.Lost)
	}

	if opts.journalPath != "" {
		fatalIf(os.WriteFile(opts.journalPath, buf.Bytes(), 0o644))
		fmt.Printf("journal: %s (%d records, binary)\n", opts.journalPath, jw.Seq())
	}
}

// runClusterPolicy runs one cluster simulation under the given policy.
// With a journal writer the cluster journals every scheduler
// transition, rejuvenation and GC stall (not the per-host observations
// or decisions). It returns the result, the defaulted policy actually
// in effect, and the observed down high-water mark.
func runClusterPolicy(opts clusterOpts, policy sched.Config, scheduled bool, jw *journal.Writer, onTr func(sched.Transition)) (ecommerce.ClusterResult, sched.Config, int) {
	factory := func(int) (core.Detector, error) { return opts.spec.NewDetector() }
	cfg := ecommerce.ClusterConfig{
		Hosts:             opts.hosts,
		Host:              ecommerce.Config{LeakyGC: opts.leaky},
		ArrivalRate:       float64(opts.hosts) * opts.load * 0.2,
		Routing:           ecommerce.RouteLeastActive,
		RejuvenationPause: opts.pause,
		Scheduler:         &policy,
		Transactions:      opts.txns,
		Seed:              opts.seed,
	}
	if scheduled {
		// The tiered policy earns its keep through early cheap actions
		// and QoS-aware timing; the full-restart baseline reacts to
		// delivered triggers only, like the legacy cluster.
		cfg.ProactiveLevel = 3
		cfg.DeadlineAware = true
	}
	c, err := ecommerce.NewCluster(cfg, factory)
	fatalIf(err)
	c.OnTransition = onTr
	if jw != nil {
		c.Journal(jw)
	}
	res, err := c.Run()
	fatalIf(err)
	return res, c.SchedulerConfig(), c.MaxDownSeen()
}

// printClusterResult renders one policy's outcome line. Note the
// survivorship asymmetry when comparing avg RT across policies: a
// policy that kills its backlog at every restart excludes exactly the
// longest-waiting transactions from the RT statistic.
func printClusterResult(name string, r ecommerce.ClusterResult) {
	fmt.Printf("%-18s completed %6d   lost %6d (loss %.4f)   avg RT %7.3f s   rejuvenations %3d (%d partial)   deferred %d\n",
		name, r.Completed, r.Lost, r.LossFraction(), r.AvgRT(), r.Rejuvenations, r.Partial, r.Deferred)
}

// tierLadder renders a tier list as "minor ρ=0.25/medium ρ=0.5/major ρ=1".
func tierLadder(tiers []sched.Tier) string {
	s := ""
	for i, t := range tiers {
		if i > 0 {
			s += "/"
		}
		s += fmt.Sprintf("%s ρ=%.4g", t.Name, t.Rho)
	}
	return s + " ladder"
}

// tierMix renders per-tier start counts in a stable order.
func tierMix(counts map[string]int) string {
	if len(counts) == 0 {
		return "no actions dispatched"
	}
	names := make([]string, 0, len(counts))
	for n := range counts {
		names = append(names, n)
	}
	sort.Strings(names)
	s := ""
	for i, n := range names {
		if i > 0 {
			s += ", "
		}
		s += fmt.Sprintf("%d %s", counts[n], n)
	}
	return s
}
