package rejuv_test

import (
	"fmt"
	"strings"
	"time"

	"rejuv"
)

// A detector is a deterministic state machine: feed observations, get a
// decision. Here a massive sustained degradation walks SRAA through its
// buckets until it calls for rejuvenation.
func ExampleNewSRAA() {
	detector, err := rejuv.NewSRAA(rejuv.SRAAConfig{
		SampleSize: 2,
		Buckets:    2,
		Depth:      1,
		Baseline:   rejuv.Baseline{Mean: 5, StdDev: 5},
	})
	if err != nil {
		panic(err)
	}
	for i := 1; ; i++ {
		if detector.Observe(100).Triggered {
			fmt.Printf("rejuvenation after %d observations\n", i)
			break
		}
	}
	// Output:
	// rejuvenation after 8 observations
}

// SARAA shrinks its sample size as degradation deepens, so later
// buckets confirm faster: the same trigger needs fewer observations
// than SRAA with identical (n, K, D).
func ExampleNewSARAA() {
	count := func(d rejuv.Detector) int {
		for i := 1; ; i++ {
			if d.Observe(100).Triggered {
				return i
			}
		}
	}
	base := rejuv.Baseline{Mean: 5, StdDev: 5}
	sraa, err := rejuv.NewSRAA(rejuv.SRAAConfig{
		SampleSize: 6, Buckets: 2, Depth: 1, Baseline: base,
	})
	if err != nil {
		panic(err)
	}
	saraa, err := rejuv.NewSARAA(rejuv.SARAAConfig{
		InitialSampleSize: 6, Buckets: 2, Depth: 1, Baseline: base,
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("SRAA: %d observations, SARAA: %d observations\n", count(sraa), count(saraa))
	// Output:
	// SRAA: 24 observations, SARAA: 18 observations
}

// CLTA triggers on the first sample mean above the normal-quantile
// target mean + z*sd/sqrt(n).
func ExampleNewCLTA() {
	detector, err := rejuv.NewCLTA(rejuv.CLTAConfig{
		SampleSize: 4,
		Quantile:   1.96,
		Baseline:   rejuv.Baseline{Mean: 5, StdDev: 2},
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("target: %.2f\n", detector.Target())
	for _, x := range []float64{9, 9, 9, 9} { // one sample of four
		if d := detector.Observe(x); d.Triggered {
			fmt.Printf("triggered on sample mean %.1f\n", d.SampleMean)
		}
	}
	// Output:
	// target: 6.96
	// triggered on sample mean 9.0
}

// Monitor adapts a detector for concurrent use and rate-limits triggers
// with a cooldown.
func ExampleNewMonitor() {
	detector, err := rejuv.NewStaticDetector(1, 1, rejuv.Baseline{Mean: 0.1, StdDev: 0.05})
	if err != nil {
		panic(err)
	}
	monitor, err := rejuv.NewMonitor(rejuv.MonitorConfig{
		Detector: detector,
		Cooldown: time.Hour,
		OnTrigger: func(t rejuv.Trigger) {
			fmt.Printf("rejuvenate! (observation %d)\n", t.Observations)
		},
	})
	if err != nil {
		panic(err)
	}
	for i := 0; i < 10; i++ {
		monitor.Observe(0.5) // a very slow service, far above baseline
	}
	stats := monitor.Stats()
	fmt.Printf("triggers: %d, suppressed by cooldown: %d\n", stats.Triggers, stats.Suppressed)
	// Output:
	// rejuvenate! (observation 2)
	// triggers: 1, suppressed by cooldown: 4
}

// A Collector publishes monitor and detector state into a metrics
// Registry, which renders in Prometheus text exposition format: scrape
// it from /metrics via Registry.Handler.
func ExampleNewCollector() {
	detector, err := rejuv.NewSRAA(rejuv.SRAAConfig{
		SampleSize: 2, Buckets: 2, Depth: 1,
		Baseline: rejuv.Baseline{Mean: 5, StdDev: 5},
	})
	if err != nil {
		panic(err)
	}
	registry := rejuv.NewRegistry()
	monitor, err := rejuv.NewMonitor(rejuv.MonitorConfig{
		Detector:  detector,
		OnTrigger: func(rejuv.Trigger) {},
		Collector: rejuv.NewCollector(registry, rejuv.Label{Name: "algo", Value: "SRAA"}),
		Now:       func() time.Time { return time.Unix(0, 0) },
	})
	if err != nil {
		panic(err)
	}
	for i := 0; i < 6; i++ {
		monitor.Observe(100) // sustained degradation: 3 exceeding samples
	}
	var b strings.Builder
	if err := registry.WritePrometheus(&b); err != nil {
		panic(err)
	}
	for _, line := range strings.Split(b.String(), "\n") {
		if strings.HasPrefix(line, "rejuv_detector_bucket_") ||
			strings.HasPrefix(line, "rejuv_observations_total{") {
			fmt.Println(line)
		}
	}
	// Output:
	// rejuv_detector_bucket_fill{algo="SRAA"} 1
	// rejuv_detector_bucket_level{algo="SRAA"} 1
	// rejuv_observations_total{algo="SRAA"} 6
}

// A TraceLog records every evaluated detector decision; after a trigger
// fires, TriggerContext explains it: the sample means that walked the
// buckets up to the threshold crossing.
func ExampleNewTraceLog() {
	detector, err := rejuv.NewSRAA(rejuv.SRAAConfig{
		SampleSize: 2, Buckets: 2, Depth: 1,
		Baseline: rejuv.Baseline{Mean: 5, StdDev: 5},
	})
	if err != nil {
		panic(err)
	}
	trace := rejuv.NewTraceLog(64)
	monitor, err := rejuv.NewMonitor(rejuv.MonitorConfig{
		Detector:  detector,
		OnTrigger: func(rejuv.Trigger) {},
		Trace:     trace,
		Now:       func() time.Time { return time.Unix(0, 0) },
	})
	if err != nil {
		panic(err)
	}
	for i := 0; i < 16 && monitor.Stats().Triggers == 0; i++ {
		monitor.Observe(100)
	}
	for _, e := range trace.TriggerContext(3) {
		suffix := ""
		if e.Triggered {
			suffix = "  TRIGGER"
		}
		fmt.Printf("obs=%d mean=%g target=%g level=%d fill=%d%s\n",
			e.Seq, e.SampleMean, e.Target, e.Level, e.Fill, suffix)
	}
	// Output:
	// obs=4 mean=100 target=5 level=1 fill=0
	// obs=6 mean=100 target=10 level=1 fill=1
	// obs=8 mean=100 target=10 level=0 fill=0  TRIGGER
}

// Simulate runs the paper's e-commerce system model; here at a low load
// where the multi-bucket configuration never rejuvenates.
func ExampleSimulate() {
	detector, err := rejuv.NewSRAA(rejuv.SRAAConfig{
		SampleSize: 2, Buckets: 5, Depth: 3,
		Baseline: rejuv.Baseline{Mean: 5, StdDev: 5},
	})
	if err != nil {
		panic(err)
	}
	result, err := rejuv.Simulate(rejuv.SimulationConfig{
		ArrivalRate:  0.1, // 0.5 CPUs offered load
		Transactions: 10_000,
		Seed:         1,
	}, detector)
	if err != nil {
		panic(err)
	}
	fmt.Printf("rejuvenations: %d, lost: %d\n", result.Rejuvenations, result.Lost)
	// Output:
	// rejuvenations: 0, lost: 0
}

// Adaptive learns the baseline during a warmup window, then builds the
// configured detector from the learned values — no SLA required.
func ExampleNewAdaptive() {
	adaptive, err := rejuv.NewAdaptive(100, func(b rejuv.Baseline) (rejuv.Detector, error) {
		fmt.Println("baseline learned")
		return rejuv.NewSRAA(rejuv.SRAAConfig{
			SampleSize: 2, Buckets: 2, Depth: 2, Baseline: b,
		})
	})
	if err != nil {
		panic(err)
	}
	for i := 0; i < 100; i++ {
		adaptive.Observe(float64(i%10) + 1) // healthy traffic, mean 5.5
	}
	if _, ok := adaptive.Learned(); ok {
		fmt.Println("detector active")
	}
	// Output:
	// baseline learned
	// detector active
}
