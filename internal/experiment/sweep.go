package experiment

import (
	"fmt"
	"math"

	"rejuv/internal/ecommerce"
	"rejuv/internal/stats"
)

// SweepConfig describes a load sweep of the e-commerce model.
type SweepConfig struct {
	// Loads is the offered load axis in "CPUs" (lambda/mu), as in the
	// paper's figures. Zero means PaperLoads.
	Loads []float64
	// Replications per load point (paper: 5).
	Replications int
	// Transactions per replication (paper: 100,000).
	Transactions int64
	// Seed is the base random seed; each (load, replication) pair uses
	// an independent stream derived from it.
	Seed uint64
}

// PaperLoads returns the x-axis of the paper's figures: 0.5 to 10.0 CPUs
// in steps of 0.5.
func PaperLoads() []float64 {
	loads := make([]float64, 0, 20)
	for l := 0.5; l <= 10.0+1e-9; l += 0.5 {
		loads = append(loads, math.Round(l*2)/2)
	}
	return loads
}

// defaulted returns cfg with zero fields replaced by paper values.
func (cfg SweepConfig) defaulted() SweepConfig {
	if len(cfg.Loads) == 0 {
		cfg.Loads = PaperLoads()
	}
	if cfg.Replications == 0 {
		cfg.Replications = 5
	}
	if cfg.Transactions == 0 {
		cfg.Transactions = 100_000
	}
	return cfg
}

// Point is one load point of a series, aggregated over replications.
type Point struct {
	// Load is the offered load in CPUs (lambda/mu).
	Load float64
	// AvgRT is the mean response time over all completed transactions
	// of all replications.
	AvgRT float64
	// RTStdDev is the standard deviation of the pooled response times.
	RTStdDev float64
	// AvgRTStdErr is the standard error of AvgRT across replications,
	// for confidence intervals.
	AvgRTStdErr float64
	// LossFraction is total lost / (lost + completed) over all
	// replications — the paper's "average fraction of transaction loss".
	LossFraction float64
	// Rejuvenations is the mean number of rejuvenations per replication.
	Rejuvenations float64
	// GCs is the mean number of full garbage collections per replication.
	GCs float64
	// Replications actually run for this point.
	Replications int
}

// Series is one curve of a figure: a spec swept over the load axis.
type Series struct {
	Spec   Spec
	Points []Point
}

// RunSweep runs every spec over the load axis of the paper's system
// (µ = 0.2) and returns one aggregated series per argument, in argument
// order. It is the package's one multi-series entry point: the distinct
// specs' flattened (spec, load, replication) grid runs on Run, and a
// spec listed more than once is simulated once, because a cell's random
// stream depends only on the seed, the load index and the replication,
// never on the spec's position. Run folds results in cell order, so the
// series are bit-for-bit identical at any GOMAXPROCS (pooled
// floating-point moments are sensitive to merge order).
func RunSweep(cfg SweepConfig, specs ...Spec) ([]Series, error) {
	cfg = cfg.defaulted()
	first := make(map[Spec]int, len(specs))
	var distinct []Spec
	for _, s := range specs {
		if _, ok := first[s]; !ok {
			first[s] = len(distinct)
			distinct = append(distinct, s)
		}
	}
	loads, reps := len(cfg.Loads), cfg.Replications
	agg := make([]pointAgg, len(distinct)*loads)
	err := Run(0, len(agg)*reps,
		func(cell int) (ecommerce.Result, error) {
			point := cell / reps
			return runReplication(cfg, distinct[point/loads], point%loads, cell%reps)
		},
		func(cell int, res ecommerce.Result) error {
			agg[cell/reps].add(res)
			return nil
		})
	if err != nil {
		return nil, err
	}

	out := make([]Series, len(specs))
	for i, s := range specs {
		out[i] = Series{Spec: s, Points: make([]Point, loads)}
		for j, load := range cfg.Loads {
			out[i].Points[j] = agg[first[s]*loads+j].finish(load)
		}
	}
	return out, nil
}

// runReplication executes one (load, replication) cell.
func runReplication(cfg SweepConfig, spec Spec, loadIdx, rep int) (ecommerce.Result, error) {
	det, err := spec.NewDetector()
	if err != nil {
		return ecommerce.Result{}, fmt.Errorf("experiment: %s: %w", spec.Label(), err)
	}
	m, err := ecommerce.New(ecommerce.Config{
		ArrivalRate:  cfg.Loads[loadIdx] * 0.2,
		Transactions: cfg.Transactions,
		Seed:         cfg.Seed,
		// Distinct stream per (load, replication) cell keeps
		// replications independent and results independent of worker
		// scheduling.
		Stream: uint64(loadIdx)*1_000 + uint64(rep) + 1,
	}, det)
	if err != nil {
		return ecommerce.Result{}, fmt.Errorf("experiment: %s at load %v: %w", spec.Label(), cfg.Loads[loadIdx], err)
	}
	return m.Run()
}

// pointAgg pools replication results for one load point.
type pointAgg struct {
	rt        stats.Welford // pooled over all transactions
	repMeans  stats.Welford // across replications, for the standard error
	completed int64
	lost      int64
	rejuv     int64
	gcs       int64
	reps      int
}

func (a *pointAgg) add(r ecommerce.Result) {
	a.rt.Merge(r.RT)
	if r.RT.N() > 0 {
		a.repMeans.Add(r.RT.Mean())
	}
	a.completed += r.Completed
	a.lost += r.Lost
	a.rejuv += r.Rejuvenations
	a.gcs += r.GCs
	a.reps++
}

func (a *pointAgg) finish(load float64) Point {
	p := Point{
		Load:          load,
		AvgRT:         a.rt.Mean(),
		RTStdDev:      a.rt.StdDev(),
		AvgRTStdErr:   a.repMeans.StdErr(),
		Rejuvenations: float64(a.rejuv) / float64(max(a.reps, 1)),
		GCs:           float64(a.gcs) / float64(max(a.reps, 1)),
		Replications:  a.reps,
	}
	if done := a.completed + a.lost; done > 0 {
		p.LossFraction = float64(a.lost) / float64(done)
	}
	return p
}
