// Command rejuvsim runs one configuration of the paper's e-commerce
// simulation model and prints the replication results: average response
// time, transaction loss, rejuvenation and GC counts.
//
// Example, the paper's best trade-off configuration at high load:
//
//	rejuvsim -algo SRAA -n 3 -k 2 -d 5 -load 9.0 -reps 5
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"rejuv/internal/core"
	"rejuv/internal/ecommerce"
	"rejuv/internal/experiment"
	"rejuv/internal/faults"
	"rejuv/internal/journal"
	"rejuv/internal/metrics"
	"rejuv/internal/stats"
)

// metricsRecord is one JSON line of the -metrics dump: the full registry
// snapshot at virtual time T seconds into replication Rep.
type metricsRecord struct {
	Rep     int                      `json:"rep"`
	T       float64                  `json:"t"`
	Metrics []metrics.SeriesSnapshot `json:"metrics"`
}

func main() {
	var (
		algo     = flag.String("algo", "SRAA", "algorithm: none, SRAA, SARAA, CLTA, Shewhart, EWMA, CUSUM")
		n        = flag.Int("n", 2, "sample size (n_orig for SARAA)")
		k        = flag.Int("k", 5, "number of buckets K")
		d        = flag.Int("d", 3, "bucket depth D")
		quantile = flag.Float64("quantile", 1.96, "CLTA normal quantile / Shewhart,EWMA limit / CUSUM threshold")
		weight   = flag.Float64("weight", 0.2, "EWMA smoothing weight / CUSUM slack")
		load     = flag.Float64("load", 8.0, "offered load in CPUs (lambda/mu)")
		txns     = flag.Int64("txns", 100_000, "transactions per replication")
		reps     = flag.Int("reps", 5, "replications")
		seed     = flag.Uint64("seed", 1, "base random seed")
		mean     = flag.Float64("mean", 5, "baseline mean response time (SLA)")
		sd       = flag.Float64("sd", 5, "baseline response time standard deviation (SLA)")
		burst    = flag.Float64("burst", 0, "burst factor (0 or 1 disables the on-off arrival overlay)")
		burstOn  = flag.Float64("burst-on", 60, "mean burst duration in seconds")
		burstOff = flag.Float64("burst-off", 600, "mean quiet duration in seconds")
		pause    = flag.Float64("pause", 0, "rejuvenation outage in seconds (paper: 0, instantaneous)")
		leaky    = flag.Bool("leaky-gc", false, "full GC reclaims nothing; only rejuvenation restores the heap")
		noGC     = flag.Bool("no-gc", false, "disable the memory/GC aging mechanism")
		noOvh    = flag.Bool("no-overhead", false, "disable the kernel-overhead mechanism")
		verbose  = flag.Bool("v", false, "print each replication")
		metricsP = flag.String("metrics", "", "write metrics snapshots to this file as JSON lines, one per sampling instant")
		metricsI = flag.Float64("metrics-interval", 500, "virtual-time seconds between -metrics snapshots")
		journalP = flag.String("journal", "", "record a flight-recorder journal of observations, decisions, rejuvenations and GCs to this file (inspect with rejuvtrace)")
		journalF = flag.String("journal-format", "binary", "journal codec: binary or jsonl")
		journalK = flag.Bool("journal-events", false, "also journal every DES kernel event (verbose: hundreds of records per transaction)")
		faultsP  = flag.String("faults", "", "fault-injection spec, e.g. 'nan:p=0.01;drop:p=0.05;slow-act:d=30' (see internal/faults)")
		hygieneP = flag.String("hygiene", "reject", "non-finite observation policy: reject, clamp or off")

		shiftP = flag.String("shift", "", "workload-shift demo: drive a non-stationary arrival profile (diurnal, flash or ramp) through a bare and a shift-aware detector and report rebaselines vs rejuvenations")
		shiftF = flag.Float64("shift-factor", 1.9, "workload-shift demo: peak arrival-rate factor")

		clusterN = flag.Int("cluster", 0, "cluster demo: run this many hosts under the always-full-restart policy and the cost-aware scheduler (partial rejuvenation, deadline deferral), journal + replay-verify the schedule, and compare loss; uses -load (per host), -txns, -seed, -pause (default 30 s here) and -leaky-gc")

		fleetN      = flag.Int("fleet", 0, "fleet mode: monitor this many synthetic streams through the batched fleet engine instead of simulating (see -fleet-* flags)")
		fleetRounds = flag.Int("fleet-rounds", 200, "fleet mode: observations per stream")
		fleetBatch  = flag.Int("fleet-batch", 4096, "fleet mode: observations per ObserveBatch call")
		fleetAging  = flag.Float64("fleet-aging", 0.01, "fleet mode: fraction of streams that degrade mid-run")
	)
	flag.Parse()

	var faultSpec faults.Spec
	if *faultsP != "" {
		var err error
		faultSpec, err = faults.ParseSpec(*faultsP)
		fatalIf(err)
	}
	hygiene, err := parseHygiene(*hygieneP)
	fatalIf(err)

	// The demo modes run their own pipelines, which inject no faults:
	// refuse a fault spec there instead of running clean.
	for _, m := range []struct {
		flag string
		on   bool
	}{{"-shift", *shiftP != ""}, {"-cluster", *clusterN > 0}, {"-fleet", *fleetN > 0}} {
		if m.on && !faultSpec.Empty() {
			fatalIf(fmt.Errorf("-faults is not supported in %s mode", m.flag))
		}
	}

	if *shiftP != "" {
		runShiftDemo(shiftOpts{
			shape: *shiftP, factor: *shiftF,
			load: *load, txns: *txns, seed: *seed,
			journalPath: *journalP,
		})
		return
	}

	if *clusterN > 0 {
		spec := experiment.Spec{
			Algorithm: experiment.Algorithm(*algo),
			N:         *n, K: *k, D: *d,
			Quantile: *quantile,
			Weight:   *weight,
		}
		spec.Baseline.Mean = *mean
		spec.Baseline.StdDev = *sd
		runClusterDemo(clusterOpts{
			hosts: *clusterN, spec: spec,
			load: *load, txns: *txns, seed: *seed,
			pause: *pause, leaky: *leaky,
			journalPath: *journalP,
		})
		return
	}

	if *fleetN > 0 {
		runFleet(fleetOpts{
			streams: *fleetN, rounds: *fleetRounds, batch: *fleetBatch,
			aging: *fleetAging, seed: *seed, hygiene: hygiene,
			journalPath: *journalP, journalFormat: *journalF,
		})
		return
	}

	// A slow-act fault maps onto the model's rejuvenation pause: a slow
	// action stretches every outage by its delay.
	*pause += faultSpec.ActionDelay()

	var dump *json.Encoder
	var dumpFile *os.File
	if *metricsP != "" {
		f, err := os.Create(*metricsP)
		fatalIf(err)
		dumpFile = f
		dump = json.NewEncoder(f)
	}

	spec := experiment.Spec{
		Algorithm: experiment.Algorithm(*algo),
		N:         *n, K: *k, D: *d,
		Quantile: *quantile,
		Weight:   *weight,
	}
	spec.Baseline.Mean = *mean
	spec.Baseline.StdDev = *sd

	lambda := *load * 0.2
	fmt.Printf("%s  load=%.2f CPUs (lambda=%.3f/s, mu=0.2/s, c=16)  %d x %d transactions\n",
		spec.Label(), *load, lambda, *reps, *txns)

	// The journal header stores the full detector spec so rejuvtrace
	// -verify can rebuild the detector and replay the decision stream.
	var jw *journal.Writer
	var journalBuf *bufio.Writer
	var journalFile *os.File
	if *journalP != "" {
		specJSON, err := json.Marshal(spec)
		fatalIf(err)
		meta := journal.Meta{
			CreatedBy: "rejuvsim",
			Detector:  spec.Label(),
			Spec:      string(specJSON),
			Seed:      *seed,
			Notes:     fmt.Sprintf("load=%.4g txns=%d reps=%d", *load, *txns, *reps),
		}
		f, err := os.Create(*journalP)
		fatalIf(err)
		journalFile = f
		journalBuf = bufio.NewWriter(f)
		switch *journalF {
		case "binary":
			jw = journal.NewWriter(journalBuf, meta)
		case "jsonl":
			jw = journal.NewJSONWriter(journalBuf, meta)
		default:
			fatalIf(fmt.Errorf("unknown -journal-format %q (want binary or jsonl)", *journalF))
		}
	}

	var pooled stats.Welford
	var completed, lost, rejuv, gcs, injected, rejected int64
	faultTally := map[faults.Class]int{}
	var faultOrder []faults.Class
	start := time.Now()
	for rep := 0; rep < *reps; rep++ {
		det, err := spec.NewDetector()
		fatalIf(err)
		model, err := ecommerce.New(ecommerce.Config{
			ArrivalRate:       lambda,
			Transactions:      *txns,
			BurstFactor:       *burst,
			BurstOn:           *burstOn,
			BurstOff:          *burstOff,
			RejuvenationPause: *pause,
			LeakyGC:           *leaky,
			DisableGC:         *noGC,
			DisableOverhead:   *noOvh,
			Seed:              *seed,
			Stream:            uint64(rep) + 1,
			Hygiene:           hygiene,
		}, det)
		fatalIf(err)
		if !faultSpec.Empty() {
			model.InjectFaults(faultSpec)
		}
		if jw != nil {
			jw.RepStart(0, rep+1, *seed, uint64(rep)+1)
			model.Journal(jw)
			if *journalK {
				model.JournalKernel(jw)
			}
		}
		var reg *metrics.Registry
		if dump != nil {
			reg = metrics.NewRegistry()
			model.Instrument(reg)
			repNo := rep + 1
			fatalIf(model.Tick(*metricsI, func(at float64) {
				fatalIf(dump.Encode(metricsRecord{Rep: repNo, T: at, Metrics: reg.Snapshot()}))
			}))
		}
		res, err := model.Run()
		fatalIf(err)
		if dump != nil {
			// Final snapshot so the end-of-replication state is always
			// present even when the run ends between grid points.
			fatalIf(dump.Encode(metricsRecord{Rep: rep + 1, T: res.SimTime, Metrics: reg.Snapshot()}))
		}
		if *verbose {
			fmt.Printf("  rep %d: avg RT %.3f s, loss %.6f, %d rejuvenations, %d GCs, %.0f s simulated\n",
				rep+1, res.AvgRT(), res.LossFraction(), res.Rejuvenations, res.GCs, res.SimTime)
		}
		pooled.Merge(res.RT)
		completed += res.Completed
		lost += res.Lost
		rejuv += res.Rejuvenations
		gcs += res.GCs
		injected += res.Injected
		rejected += res.Rejected
		for _, c := range model.FaultCounts() {
			if _, seen := faultTally[c.Class]; !seen {
				faultOrder = append(faultOrder, c.Class)
			}
			faultTally[c.Class] += c.N
		}
	}
	elapsed := time.Since(start)

	lossFrac := 0.0
	if done := completed + lost; done > 0 {
		lossFrac = float64(lost) / float64(done)
	}
	fmt.Printf("\naverage response time: %.3f s (sd %.3f)\n", pooled.Mean(), pooled.StdDev())
	fmt.Printf("transaction loss:      %.6f (%d of %d)\n", lossFrac, lost, completed+lost)
	fmt.Printf("rejuvenations:         %d   full GCs: %d\n", rejuv, gcs)
	if !faultSpec.Empty() {
		fmt.Printf("faults injected:       %d (%d rejected by %s hygiene)\n", injected, rejected, hygiene)
		for _, class := range faultOrder {
			fmt.Printf("  %-8s %d\n", class, faultTally[class])
		}
	}
	fmt.Printf("wall time:             %v\n", elapsed.Round(time.Millisecond))
	if dumpFile != nil {
		fatalIf(dumpFile.Close())
		fmt.Printf("metrics:               %s (every %.0f s of virtual time)\n", *metricsP, *metricsI)
	}
	if jw != nil {
		fatalIf(jw.Err())
		fatalIf(journalBuf.Flush())
		fatalIf(journalFile.Close())
		fmt.Printf("journal:               %s (%d records, %s)\n", *journalP, jw.Seq(), *journalF)
	}
}

// parseHygiene maps the -hygiene flag onto the core policy.
func parseHygiene(s string) (core.Hygiene, error) {
	switch s {
	case "reject":
		return core.HygieneReject, nil
	case "clamp":
		return core.HygieneClamp, nil
	case "off":
		return core.HygieneOff, nil
	}
	return 0, fmt.Errorf("unknown -hygiene %q (want reject, clamp or off)", s)
}

func fatalIf(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "rejuvsim:", err)
		os.Exit(1)
	}
}
