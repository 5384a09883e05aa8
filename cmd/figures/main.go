// Command figures regenerates every data figure of the paper's
// evaluation: Fig. 5 (analytical density of the sample-average response
// time vs its normal approximation) and Figs. 9–16 (simulation load
// sweeps of the rejuvenation algorithms). For each figure it writes a
// CSV with the raw numbers, an SVG chart, and a text table, and prints
// the table to stdout.
//
// Usage:
//
//	figures [-fig all|5|9|10|11|12|13|14|15|16] [-out results] [-quick]
//
// The default run uses the paper's fidelity (five replications of
// 100,000 transactions per load point); -quick cuts this down for a
// fast smoke pass.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"rejuv/internal/ecommerce"
	"rejuv/internal/experiment"
	"rejuv/internal/mmc"
	"rejuv/internal/plot"
	"rejuv/internal/stats"
)

func main() {
	var (
		fig   = flag.String("fig", "all", "figure to regenerate: all, 5, 9, 10, 11, 12, 13, 14, 15, 16")
		out   = flag.String("out", "results", "output directory")
		quick = flag.Bool("quick", false, "reduced fidelity: 2 replications of 20,000 transactions, coarser load axis")
		seed  = flag.Uint64("seed", 1, "base random seed")
		ascii = flag.Bool("ascii", false, "also print each figure as an ASCII chart")
		sim   = flag.Bool("sim", false, "fig 5: overlay an empirical density from simulated M/M/16 sample means")
	)
	flag.Parse()

	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatal(err)
	}
	cfg := experiment.SweepConfig{Seed: *seed}
	if *quick {
		cfg.Replications = 2
		cfg.Transactions = 20_000
		cfg.Loads = []float64{0.5, 2, 4, 6, 8, 9, 10}
	}

	want := func(id string) bool { return *fig == "all" || *fig == id || "fig"+*fig == id || "fig0"+*fig == id }

	if want("fig05") {
		if err := runFig5(*out, *sim, *seed); err != nil {
			fatal(err)
		}
	}
	if *fig == "cluster" || *fig == "all" {
		if err := runClusterExtension(*out, cfg, *seed); err != nil {
			fatal(err)
		}
	}
	if *fig == "bursts" || *fig == "all" {
		if err := runBurstExtension(*out, cfg, *seed); err != nil {
			fatal(err)
		}
	}
	var figs []experiment.Figure
	for _, f := range experiment.PaperFigures() {
		if want(f.ID) {
			figs = append(figs, f)
		}
	}
	// One shared grid simulates every distinct series of the selected
	// figures once, so each figure's elapsed time counts from the
	// grid's start.
	start := time.Now()
	results, err := experiment.RunFigures(cfg, figs...)
	if err != nil {
		fatal(err)
	}
	for _, res := range results {
		fmt.Printf("running %s: %s ...\n", res.Figure.ID, res.Figure.Title)
		chart, err := writeFigure(*out, res)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s\n(%s in %v)\n\n", res.Table(), res.Figure.ID, time.Since(start).Round(time.Second))
		if *ascii {
			text, err := chart.ASCII(90, 24)
			if err != nil {
				fatal(err)
			}
			fmt.Println(text)
		}
	}
}

// simulatedAvgRTDensity runs the pure M/M/16 model and bins
// non-overlapping sample means of size n into an empirical density over
// [lo, hi), validating eq. (4) against simulation.
func simulatedAvgRTDensity(n int, lo, hi float64, bins int, seed uint64) (*stats.Histogram, error) {
	h := stats.NewHistogram(lo, hi, bins)
	m, err := rejuvSimPure(seed)
	if err != nil {
		return nil, err
	}
	var sum float64
	var count int
	m.OnComplete = func(rt float64) {
		sum += rt
		count++
		if count == n {
			h.Add(sum / float64(n))
			sum, count = 0, 0
		}
	}
	if _, err := m.Run(); err != nil {
		return nil, err
	}
	return h, nil
}

// rejuvSimPure builds the pure M/M/16 model (no overhead, no GC, no
// rejuvenation) used for the Fig. 5 empirical overlay.
func rejuvSimPure(seed uint64) (*ecommerce.Model, error) {
	return ecommerce.New(ecommerce.Config{
		ArrivalRate:     1.6,
		Transactions:    500_000,
		DisableOverhead: true,
		DisableGC:       true,
		Seed:            seed,
		Stream:          1,
	}, nil)
}

// runFig5 produces the analytical Fig. 5: the density of X̄n for
// n = 1, 5, 15, 30 with the approximating normal overlay, for the
// M/M/16 system at lambda = 1.6, mu = 0.2, plus the tail-probability
// table quoted in Section 4.1. With sim set, an empirical density from
// simulated sample means is added as a third series.
func runFig5(out string, sim bool, seed uint64) error {
	sys, err := mmc.New(16, 1.6, 0.2)
	if err != nil {
		return err
	}
	mean := sys.RTMean()
	fmt.Printf("running fig05: density of the average response time (analytical)\n")
	fmt.Printf("M/M/16, lambda=1.6, mu=0.2: Wc=%.6f, E[X]=%.4f, SD[X]=%.4f\n",
		sys.Wc(), mean, sys.RTStdDev())

	csv := &strings.Builder{}
	csv.WriteString("n,x,exact_density,normal_density\n")
	for _, n := range []int{1, 5, 15, 30} {
		m, sd := sys.NormalApprox(n)
		lo, hi := 0.0, mean+5*sd*4
		if n == 1 {
			lo, hi = 0, 25
		}
		const points = 120
		xs := make([]float64, points+1)
		for i := range xs {
			xs[i] = lo + (hi-lo)*float64(i)/points
		}
		exact, err := sys.AvgRTPDF(n, xs)
		if err != nil {
			return err
		}
		normal := make([]float64, len(xs))
		for i, x := range xs {
			normal[i] = stats.NormPDF(x, m, sd)
		}
		for i, x := range xs {
			fmt.Fprintf(csv, "%d,%.6g,%.8g,%.8g\n", n, x, exact[i], normal[i])
		}
		chart := plot.Chart{
			Title:  fmt.Sprintf("Density of the average response time, n = %d", n),
			XLabel: "x",
			YLabel: "f(x)",
			Series: []plot.Series{
				{Name: "exact (CTMC absorption, eq. 4)", X: xs, Y: exact},
				{Name: "normal approximation", X: xs, Y: normal},
			},
		}
		if sim {
			h, err := simulatedAvgRTDensity(n, lo, hi, 60, seed)
			if err != nil {
				return err
			}
			empX := make([]float64, len(h.Counts))
			for i := range empX {
				empX[i] = h.BinCenter(i)
			}
			chart.Series = append(chart.Series, plot.Series{
				Name: "simulated (500k transactions)", X: empX, Y: h.Density(),
			})
		}
		svg, err := os.Create(filepath.Join(out, fmt.Sprintf("fig05_n%d.svg", n)))
		if err != nil {
			return err
		}
		if err := chart.WriteSVG(svg); err != nil {
			_ = svg.Close()
			return err
		}
		if err := svg.Close(); err != nil {
			return err
		}
	}
	if err := os.WriteFile(filepath.Join(out, "fig05.csv"), []byte(csv.String()), 0o644); err != nil {
		return err
	}

	fmt.Println("tail mass beyond the 97.5% normal quantile (paper: 3.69% for n=15, 3.37% for n=30):")
	for _, n := range []int{15, 30} {
		tail, err := sys.TailBeyondNormalQuantile(n, 0.975)
		if err != nil {
			return err
		}
		fmt.Printf("  n=%2d: %.2f%%\n", n, tail*100)
	}
	fmt.Println()
	return nil
}

// runClusterExtension produces the ext_cluster figure: cluster-wide
// average response time versus per-host load for 1, 2 and 4 hosts with
// serialized 30 s restarts.
func runClusterExtension(out string, sweep experiment.SweepConfig, seed uint64) error {
	fmt.Println("running ext_cluster: cluster scaling (extension) ...")
	start := time.Now()
	cfg := experiment.ClusterSweepConfig{
		Loads:        sweep.Loads,
		Transactions: sweep.Transactions,
		Replications: sweep.Replications,
		Seed:         seed,
	}
	series, err := experiment.RunClusterSweep(cfg)
	if err != nil {
		return err
	}
	chart := plot.Chart{
		Title:  "Extension: cluster scaling, SRAA (n=2, K=5, D=3) per host, 30 s restarts",
		XLabel: "Offered Load per Host (CPUs)",
		YLabel: "Average Response Time",
	}
	var csv strings.Builder
	csv.WriteString("hosts,load_per_host_cpus,avg_rt,loss_fraction,rejuvenations,deferred\n")
	for _, s := range series {
		ps := plot.Series{Name: fmt.Sprintf("%d host(s)", s.Hosts)}
		for _, p := range s.Points {
			ps.X = append(ps.X, p.Load)
			ps.Y = append(ps.Y, p.AvgRT)
			fmt.Fprintf(&csv, "%d,%g,%.6g,%.8g,%.6g,%.6g\n",
				s.Hosts, p.Load, p.AvgRT, p.LossFraction, p.Rejuvenations, p.Deferred)
		}
		chart.Series = append(chart.Series, ps)
	}
	if err := writeChartFiles(out, "ext_cluster", &chart, csv.String()); err != nil {
		return err
	}
	fmt.Printf("(ext_cluster in %v)\n\n", time.Since(start).Round(time.Second))
	return nil
}

// runBurstExtension produces the ext_bursts figure: false alarms per
// 100k transactions versus burst factor, with no aging present.
func runBurstExtension(out string, sweep experiment.SweepConfig, seed uint64) error {
	fmt.Println("running ext_bursts: burst tolerance (extension) ...")
	start := time.Now()
	cfg := experiment.BurstSweepConfig{
		Transactions: sweep.Transactions,
		Replications: sweep.Replications,
		Seed:         seed,
	}
	series, err := experiment.RunBurstSweep(cfg)
	if err != nil {
		return err
	}
	chart := plot.Chart{
		Title:  "Extension: false alarms under arrival bursts (no aging present)",
		XLabel: "Burst Factor (arrival-rate multiplier during bursts)",
		YLabel: "False Alarms per 100k Transactions",
	}
	var csv strings.Builder
	csv.WriteString("config,burst_factor,false_alarms_per_100k,loss_fraction\n")
	for _, s := range series {
		ps := plot.Series{Name: s.Spec.Label()}
		for _, p := range s.Points {
			ps.X = append(ps.X, p.Factor)
			ps.Y = append(ps.Y, p.FalseAlarmsPer100k)
			fmt.Fprintf(&csv, "%s,%g,%.6g,%.8g\n",
				s.Spec.Label(), p.Factor, p.FalseAlarmsPer100k, p.LossFraction)
		}
		chart.Series = append(chart.Series, ps)
	}
	if err := writeChartFiles(out, "ext_bursts", &chart, csv.String()); err != nil {
		return err
	}
	fmt.Printf("(ext_bursts in %v)\n\n", time.Since(start).Round(time.Second))
	return nil
}

// writeChartFiles emits the SVG and CSV for an extension figure.
func writeChartFiles(out, id string, chart *plot.Chart, csv string) error {
	svgFile, err := os.Create(filepath.Join(out, id+".svg"))
	if err != nil {
		return err
	}
	if err := chart.WriteSVG(svgFile); err != nil {
		_ = svgFile.Close()
		return err
	}
	if err := svgFile.Close(); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(out, id+".csv"), []byte(csv), 0o644)
}

// writeFigure emits CSV, SVG, and text table for one simulation figure
// and returns the chart so the caller can also render it as ASCII.
func writeFigure(out string, res experiment.FigureResult) (*plot.Chart, error) {
	csvFile, err := os.Create(filepath.Join(out, res.Figure.ID+".csv"))
	if err != nil {
		return nil, err
	}
	if err := res.WriteCSV(csvFile); err != nil {
		_ = csvFile.Close()
		return nil, err
	}
	if err := csvFile.Close(); err != nil {
		return nil, err
	}
	detailFile, err := os.Create(filepath.Join(out, res.Figure.ID+"_detail.csv"))
	if err != nil {
		return nil, err
	}
	if err := res.WriteDetailedCSV(detailFile); err != nil {
		_ = detailFile.Close()
		return nil, err
	}
	if err := detailFile.Close(); err != nil {
		return nil, err
	}

	chart := plot.Chart{
		Title:  fmt.Sprintf("Figure %d: %s", res.Figure.Number, res.Figure.Title),
		XLabel: "Offered Load (CPUs)",
		YLabel: res.Figure.Metric.AxisLabel(),
	}
	for _, s := range res.Series {
		ps := plot.Series{Name: s.Spec.Label()}
		for _, p := range s.Points {
			ps.X = append(ps.X, p.Load)
			ps.Y = append(ps.Y, res.Figure.Metric.Value(p))
		}
		chart.Series = append(chart.Series, ps)
	}
	svgFile, err := os.Create(filepath.Join(out, res.Figure.ID+".svg"))
	if err != nil {
		return nil, err
	}
	if err := chart.WriteSVG(svgFile); err != nil {
		_ = svgFile.Close()
		return nil, err
	}
	if err := svgFile.Close(); err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(out, res.Figure.ID+".txt"), []byte(res.Table()), 0o644); err != nil {
		return nil, err
	}
	return &chart, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "figures:", err)
	os.Exit(1)
}
