package rejuv_test

// This file holds the science benchmarks: the analytical Fig. 5
// density, the Section 4.1 autocorrelation study, and the ablation and
// sensitivity experiments, plus micro-benchmarks. The science
// benchmarks report the numbers they study as custom metrics, e.g. the
// average response time at 9.0 CPUs offered load. The simulation
// figures (Figs. 9–16) come from cmd/figures; their quick-fidelity CSVs
// are pinned by TestCmdFiguresQuickGolden.
//
// Metric naming: RT@<load>CPUs is seconds of average response time,
// loss@<load>CPUs is the fraction of transactions killed by
// rejuvenation.

import (
	"fmt"
	"testing"

	"rejuv"
	"rejuv/internal/experiment"
	"rejuv/internal/mmc"
	"rejuv/internal/stats"
)

// sanitize strips spaces from series labels so metric names stay one token.
func sanitize(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch r {
		case ' ':
			// dropped
		case ',':
			out = append(out, '_')
		default:
			out = append(out, r)
		}
	}
	return string(out)
}

// BenchmarkFig05AvgRTDensity regenerates Fig. 5: the exact density of
// the sample-average response time X̄n via the Fig. 4 CTMC (eq. 4),
// for the paper's four sample sizes, and reports the Section 4.1 tail
// masses beyond the 97.5% normal quantile.
func BenchmarkFig05AvgRTDensity(b *testing.B) {
	sys, err := mmc.New(16, 1.6, 0.2)
	if err != nil {
		b.Fatal(err)
	}
	xs := make([]float64, 60)
	for i := range xs {
		xs[i] = 0.2 + float64(i)*0.2 // 0.2 .. 12
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, n := range []int{1, 5, 15, 30} {
			if _, err := sys.AvgRTPDF(n, xs); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	for _, n := range []int{15, 30} {
		tail, err := sys.TailBeyondNormalQuantile(n, 0.975)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(tail*100, fmt.Sprintf("tailPct:n=%d", n))
	}
}

// BenchmarkAutocorrelation reproduces the Section 4.1 autocorrelation
// study: lag-1 autocorrelation of the pure M/M/16 response-time series
// with the transient dropped.
func BenchmarkAutocorrelation(b *testing.B) {
	var gamma float64
	for i := 0; i < b.N; i++ {
		series := make([]float64, 0, 50_000)
		m, err := rejuv.NewSimulation(rejuv.SimulationConfig{
			ArrivalRate:     1.6,
			Transactions:    50_000,
			DisableOverhead: true,
			DisableGC:       true,
			Seed:            1,
			Stream:          uint64(i) + 1,
		}, nil)
		if err != nil {
			b.Fatal(err)
		}
		m.OnComplete = func(rt float64) { series = append(series, rt) }
		if _, err := m.Run(); err != nil {
			b.Fatal(err)
		}
		gamma, err = stats.Autocorrelation(series[5_000:], 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(gamma, "lag1autocorr")
}

// BenchmarkAblationNoRejuvenation quantifies what the paper's figures
// leave implicit: the system without any rejuvenation, where the
// GC-overhead death spiral makes the response time diverge at high load.
func BenchmarkAblationNoRejuvenation(b *testing.B) {
	var rt float64
	for i := 0; i < b.N; i++ {
		res, err := rejuv.Simulate(rejuv.SimulationConfig{
			ArrivalRate:  1.8,
			Transactions: 25_000,
			Seed:         1,
			Stream:       1,
		}, nil)
		if err != nil {
			b.Fatal(err)
		}
		rt = res.AvgRT()
	}
	b.ReportMetric(rt, "RT@9CPUs:none")
}

// BenchmarkAblationRejuvenationPause studies the paper's instantaneous-
// rejuvenation assumption by charging each rejuvenation a restart
// outage, which penalizes trigger-happy configurations.
func BenchmarkAblationRejuvenationPause(b *testing.B) {
	for _, pause := range []float64{0, 30, 120} {
		pause := pause
		b.Run(fmt.Sprintf("pause=%gs", pause), func(b *testing.B) {
			var rt, loss float64
			for i := 0; i < b.N; i++ {
				det, err := rejuv.NewSRAA(rejuv.SRAAConfig{
					SampleSize: 2, Buckets: 5, Depth: 3,
					Baseline: rejuv.Baseline{Mean: 5, StdDev: 5},
				})
				if err != nil {
					b.Fatal(err)
				}
				res, err := rejuv.Simulate(rejuv.SimulationConfig{
					ArrivalRate:       1.8,
					Transactions:      25_000,
					RejuvenationPause: pause,
					Seed:              1,
					Stream:            1,
				}, det)
				if err != nil {
					b.Fatal(err)
				}
				rt, loss = res.AvgRT(), res.LossFraction()
			}
			b.ReportMetric(rt, "RT@9CPUs")
			b.ReportMetric(loss, "loss@9CPUs")
		})
	}
}

// BenchmarkAblationClassicalCharts positions the paper's algorithms
// against classical change detection on the same workload.
func BenchmarkAblationClassicalCharts(b *testing.B) {
	specs := []experiment.Spec{
		{Algorithm: experiment.SRAA, N: 2, K: 5, D: 3},
		{Algorithm: experiment.Shewhart, Quantile: 4},
		{Algorithm: experiment.EWMA, Weight: 0.2, Quantile: 4},
		{Algorithm: experiment.CUSUM, Weight: 0.5, Quantile: 8},
	}
	for _, spec := range specs {
		spec := spec
		b.Run(sanitize(spec.Label()), func(b *testing.B) {
			var rt, loss float64
			for i := 0; i < b.N; i++ {
				det, err := spec.NewDetector()
				if err != nil {
					b.Fatal(err)
				}
				res, err := rejuv.Simulate(rejuv.SimulationConfig{
					ArrivalRate:  1.8,
					Transactions: 25_000,
					Seed:         1,
					Stream:       1,
				}, det)
				if err != nil {
					b.Fatal(err)
				}
				rt, loss = res.AvgRT(), res.LossFraction()
			}
			b.ReportMetric(rt, "RT@9CPUs")
			b.ReportMetric(loss, "loss@9CPUs")
		})
	}
}

// BenchmarkAblationBurstTolerance tests the paper's central design
// claim: with no aging at all, transient arrival bursts must not cause
// rejuvenation under a multi-bucket configuration, while a single-bucket
// configuration false-triggers. Reported metrics are false alarms per
// 100k transactions.
func BenchmarkAblationBurstTolerance(b *testing.B) {
	configs := []struct {
		name    string
		n, k, d int
	}{
		{"multi=n2K5D3", 2, 5, 3},
		{"single=n15K1D1", 15, 1, 1},
	}
	for _, cfg := range configs {
		cfg := cfg
		b.Run(cfg.name, func(b *testing.B) {
			var falseAlarms, loss float64
			for i := 0; i < b.N; i++ {
				det, err := rejuv.NewSRAA(rejuv.SRAAConfig{
					SampleSize: cfg.n, Buckets: cfg.k, Depth: cfg.d,
					Baseline: rejuv.Baseline{Mean: 5, StdDev: 5},
				})
				if err != nil {
					b.Fatal(err)
				}
				res, err := rejuv.Simulate(rejuv.SimulationConfig{
					ArrivalRate:  0.8,
					BurstFactor:  3.5,
					BurstOn:      60,
					BurstOff:     600,
					DisableGC:    true, // no aging: every trigger is false
					Transactions: 50_000,
					Seed:         1,
					Stream:       1,
				}, det)
				if err != nil {
					b.Fatal(err)
				}
				falseAlarms = float64(res.Rejuvenations) * 100_000 / float64(res.Completed+res.Lost)
				loss = res.LossFraction()
			}
			b.ReportMetric(falseAlarms, "falseAlarms/100k")
			b.ReportMetric(loss, "loss")
		})
	}
}

// BenchmarkAblationPeriodicBaseline compares the classical time-based
// rejuvenation policy (restart every T seconds, Huang et al.) against
// the paper's measurement-driven SRAA at the same load. The detector
// reacts to actual degradation; the clock fires regardless.
func BenchmarkAblationPeriodicBaseline(b *testing.B) {
	cases := []struct {
		name     string
		interval float64
		detector bool
	}{
		{"periodic=90s", 90, false},
		{"periodic=300s", 300, false},
		{"periodic=1200s", 1200, false},
		{"SRAA=n2K5D3", 0, true},
	}
	for _, c := range cases {
		c := c
		b.Run(c.name, func(b *testing.B) {
			var rt, loss float64
			for i := 0; i < b.N; i++ {
				var det rejuv.Detector
				if c.detector {
					var err error
					det, err = rejuv.NewSRAA(rejuv.SRAAConfig{
						SampleSize: 2, Buckets: 5, Depth: 3,
						Baseline: rejuv.Baseline{Mean: 5, StdDev: 5},
					})
					if err != nil {
						b.Fatal(err)
					}
				}
				res, err := rejuv.Simulate(rejuv.SimulationConfig{
					ArrivalRate:          1.8,
					Transactions:         25_000,
					RejuvenationInterval: c.interval,
					Seed:                 1,
					Stream:               1,
				}, det)
				if err != nil {
					b.Fatal(err)
				}
				rt, loss = res.AvgRT(), res.LossFraction()
			}
			b.ReportMetric(rt, "RT@9CPUs")
			b.ReportMetric(loss, "loss@9CPUs")
		})
	}
}

// BenchmarkAblationCluster compares single-host and 4-host deployments
// at the same per-host load, with a 30 s restart outage per host
// rejuvenation (the companion work's deployment).
func BenchmarkAblationCluster(b *testing.B) {
	var rt float64
	for i := 0; i < b.N; i++ {
		res, err := rejuv.SimulateCluster(rejuv.ClusterConfig{
			Hosts:             4,
			ArrivalRate:       4 * 1.8,
			RejuvenationPause: 30,
			Transactions:      50_000,
			Seed:              1,
		}, func(int) (rejuv.Detector, error) {
			return rejuv.NewSRAA(rejuv.SRAAConfig{
				SampleSize: 2, Buckets: 5, Depth: 3,
				Baseline: rejuv.Baseline{Mean: 5, StdDev: 5},
			})
		})
		if err != nil {
			b.Fatal(err)
		}
		rt = res.AvgRT()
	}
	b.ReportMetric(rt, "RT@9CPUsPerHost")
}

// BenchmarkSensitivityGCPause sweeps the paper's fixed 60 s GC stall,
// the model parameter the response-time figures are most sensitive to.
func BenchmarkSensitivityGCPause(b *testing.B) {
	for _, pause := range []float64{15, 60, 240} {
		pause := pause
		b.Run(fmt.Sprintf("gcPause=%gs", pause), func(b *testing.B) {
			var rt, loss float64
			for i := 0; i < b.N; i++ {
				det, err := rejuv.NewSRAA(rejuv.SRAAConfig{
					SampleSize: 2, Buckets: 5, Depth: 3,
					Baseline: rejuv.Baseline{Mean: 5, StdDev: 5},
				})
				if err != nil {
					b.Fatal(err)
				}
				res, err := rejuv.Simulate(rejuv.SimulationConfig{
					ArrivalRate:  1.8,
					GCPause:      pause,
					Transactions: 25_000,
					Seed:         1,
					Stream:       1,
				}, det)
				if err != nil {
					b.Fatal(err)
				}
				rt, loss = res.AvgRT(), res.LossFraction()
			}
			b.ReportMetric(rt, "RT@9CPUs")
			b.ReportMetric(loss, "loss@9CPUs")
		})
	}
}

// BenchmarkSensitivityHeap sweeps the heap size, which sets the aging
// period (transactions between GC stalls).
func BenchmarkSensitivityHeap(b *testing.B) {
	for _, heapMB := range []float64{1024, 3072, 8192} {
		heapMB := heapMB
		b.Run(fmt.Sprintf("heap=%gMB", heapMB), func(b *testing.B) {
			var rt, gcs float64
			for i := 0; i < b.N; i++ {
				det, err := rejuv.NewSRAA(rejuv.SRAAConfig{
					SampleSize: 2, Buckets: 5, Depth: 3,
					Baseline: rejuv.Baseline{Mean: 5, StdDev: 5},
				})
				if err != nil {
					b.Fatal(err)
				}
				res, err := rejuv.Simulate(rejuv.SimulationConfig{
					ArrivalRate:  1.8,
					HeapMB:       heapMB,
					Transactions: 25_000,
					Seed:         1,
					Stream:       1,
				}, det)
				if err != nil {
					b.Fatal(err)
				}
				rt, gcs = res.AvgRT(), float64(res.GCs)
			}
			b.ReportMetric(rt, "RT@9CPUs")
			b.ReportMetric(gcs, "GCs")
		})
	}
}

// BenchmarkSensitivityServiceDistribution tests robustness of the
// detection results to the paper's exponential-service assumption by
// swapping in a less variable (Erlang-2) and a more variable
// (hyperexponential, CV 2) processing-time distribution with the same
// mean.
func BenchmarkSensitivityServiceDistribution(b *testing.B) {
	for _, d := range []string{"exponential", "erlang2", "hyper2"} {
		d := d
		b.Run(d, func(b *testing.B) {
			var rt, loss float64
			for i := 0; i < b.N; i++ {
				det, err := rejuv.NewSRAA(rejuv.SRAAConfig{
					SampleSize: 2, Buckets: 5, Depth: 3,
					Baseline: rejuv.Baseline{Mean: 5, StdDev: 5},
				})
				if err != nil {
					b.Fatal(err)
				}
				res, err := rejuv.Simulate(rejuv.SimulationConfig{
					ArrivalRate:         1.8,
					ServiceDistribution: rejuv.ServiceDistribution(d),
					Transactions:        25_000,
					Seed:                1,
					Stream:              1,
				}, det)
				if err != nil {
					b.Fatal(err)
				}
				rt, loss = res.AvgRT(), res.LossFraction()
			}
			b.ReportMetric(rt, "RT@9CPUs")
			b.ReportMetric(loss, "loss@9CPUs")
		})
	}
}

// BenchmarkSimulatorThroughput measures raw simulator speed in
// transactions per second of wall time, the figure that bounds how fast
// the full evaluation can regenerate.
func BenchmarkSimulatorThroughput(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := rejuv.Simulate(rejuv.SimulationConfig{
			ArrivalRate:  1.6,
			Transactions: 10_000,
			Seed:         1,
			Stream:       uint64(i) + 1,
		}, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)*10_000/b.Elapsed().Seconds(), "txns/s")
}

// BenchmarkDetectorObserve measures the per-observation cost of each
// detector — the overhead a production monitor adds to a request path.
func BenchmarkDetectorObserve(b *testing.B) {
	base := rejuv.Baseline{Mean: 5, StdDev: 5}
	builders := map[string]func() (rejuv.Detector, error){
		"SRAA": func() (rejuv.Detector, error) {
			return rejuv.NewSRAA(rejuv.SRAAConfig{SampleSize: 2, Buckets: 5, Depth: 3, Baseline: base})
		},
		"SARAA": func() (rejuv.Detector, error) {
			return rejuv.NewSARAA(rejuv.SARAAConfig{InitialSampleSize: 2, Buckets: 5, Depth: 3, Baseline: base})
		},
		"CLTA": func() (rejuv.Detector, error) {
			return rejuv.NewCLTA(rejuv.CLTAConfig{SampleSize: 30, Quantile: 1.96, Baseline: base})
		},
		"EWMA": func() (rejuv.Detector, error) { return rejuv.NewEWMA(0.2, 3, base) },
		"CUSUM": func() (rejuv.Detector, error) {
			return rejuv.NewCUSUM(0.5, 5, base)
		},
	}
	for name, build := range builders {
		build := build
		b.Run(name, func(b *testing.B) {
			det, err := build()
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				det.Observe(float64(i%13) + 1)
			}
		})
	}
}

// BenchmarkMonitorObserve measures the concurrent monitor wrapper.
func BenchmarkMonitorObserve(b *testing.B) {
	det, err := rejuv.NewSRAA(rejuv.SRAAConfig{
		SampleSize: 2, Buckets: 5, Depth: 3,
		Baseline: rejuv.Baseline{Mean: 5, StdDev: 5},
	})
	if err != nil {
		b.Fatal(err)
	}
	m, err := rejuv.NewMonitor(rejuv.MonitorConfig{
		Detector:  det,
		OnTrigger: func(rejuv.Trigger) {},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			m.Observe(float64(i%13) + 1)
			i++
		}
	})
}
