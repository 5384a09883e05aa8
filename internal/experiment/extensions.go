package experiment

import (
	"fmt"

	"rejuv/internal/core"
	"rejuv/internal/ecommerce"
	"rejuv/internal/num"
)

// This file defines the extension experiments that go beyond the
// paper's figures: cluster scaling (per the authors' companion work on
// cluster systems) and burst tolerance (the paper's Section-1 design
// requirement, which its own evaluation never isolates).

// ClusterSweepConfig describes the cluster-scaling extension figure:
// cluster-wide average response time and loss versus per-host offered
// load, for several cluster sizes, each host guarded by the paper's
// best-trade-off detector and restarts serialized across the cluster.
type ClusterSweepConfig struct {
	// Hosts lists the cluster sizes to sweep (e.g. 1, 2, 4).
	Hosts []int
	// Loads is the per-host offered load axis in CPUs; zero means
	// PaperLoads.
	Loads []float64
	// Spec is the per-host detector configuration; the zero value
	// selects SRAA(2,5,3), the paper's Fig. 16 bucketed baseline.
	Spec Spec
	// RejuvenationPause is the per-host restart outage in seconds
	// (zero: 30, a production-plausible JVM restart).
	RejuvenationPause float64
	// Transactions per replication and Replications per point; zeroes
	// select 100,000 and 3.
	Transactions int64
	Replications int
	// Seed is the base random seed.
	Seed uint64
}

func (cfg ClusterSweepConfig) defaulted() ClusterSweepConfig {
	if len(cfg.Hosts) == 0 {
		cfg.Hosts = []int{1, 2, 4}
	}
	if len(cfg.Loads) == 0 {
		cfg.Loads = PaperLoads()
	}
	if cfg.Spec.Algorithm == "" {
		cfg.Spec = sraaSpec(2, 5, 3)
	}
	if num.Zero(cfg.RejuvenationPause) {
		cfg.RejuvenationPause = 30
	}
	if cfg.Transactions == 0 {
		cfg.Transactions = 100_000
	}
	if cfg.Replications == 0 {
		cfg.Replications = 3
	}
	return cfg
}

// ClusterPoint is one (hosts, load) cell.
type ClusterPoint struct {
	Load          float64
	AvgRT         float64
	LossFraction  float64
	Rejuvenations float64 // mean per replication
	Deferred      float64 // mean per replication
}

// ClusterSeries is the sweep for one cluster size.
type ClusterSeries struct {
	Hosts  int
	Points []ClusterPoint
}

// clusterAgg pools the replications of one (hosts, load) point.
type clusterAgg struct {
	rtWeighted                       float64
	completed, lost, rejuv, deferred int64
}

// RunClusterSweep executes the cluster-scaling experiment: one
// flattened (hosts, load, replication) cell grid on Run, folded in cell
// order.
func RunClusterSweep(cfg ClusterSweepConfig) ([]ClusterSeries, error) {
	cfg = cfg.defaulted()
	nl, nr := len(cfg.Loads), cfg.Replications
	factory := func(int) (core.Detector, error) { return cfg.Spec.NewDetector() }
	agg := make([]clusterAgg, len(cfg.Hosts)*nl)
	err := Run(0, len(agg)*nr,
		func(cell int) (ecommerce.ClusterResult, error) {
			hosts, li, rep := cfg.Hosts[cell/nr/nl], cell/nr%nl, cell%nr
			c, err := ecommerce.NewCluster(ecommerce.ClusterConfig{
				Hosts:             hosts,
				ArrivalRate:       float64(hosts) * cfg.Loads[li] * 0.2,
				RejuvenationPause: cfg.RejuvenationPause,
				Transactions:      cfg.Transactions,
				Seed:              cfg.Seed,
				Stream:            uint64(hosts)*100_000 + uint64(li)*100 + uint64(rep) + 1,
			}, factory)
			if err != nil {
				return ecommerce.ClusterResult{}, fmt.Errorf("experiment: cluster sweep hosts=%d load=%v: %w", hosts, cfg.Loads[li], err)
			}
			return c.Run()
		},
		func(cell int, res ecommerce.ClusterResult) error {
			a := &agg[cell/nr]
			a.rtWeighted += res.RT.Mean() * float64(res.Completed)
			a.completed += res.Completed
			a.lost += res.Lost
			a.rejuv += res.Rejuvenations
			a.deferred += res.Deferred
			return nil
		})
	if err != nil {
		return nil, err
	}

	out := make([]ClusterSeries, len(cfg.Hosts))
	for hi, hosts := range cfg.Hosts {
		out[hi] = ClusterSeries{Hosts: hosts, Points: make([]ClusterPoint, nl)}
		for li, load := range cfg.Loads {
			a := agg[hi*nl+li]
			p := ClusterPoint{
				Load:          load,
				Rejuvenations: float64(a.rejuv) / float64(nr),
				Deferred:      float64(a.deferred) / float64(nr),
			}
			if a.completed > 0 {
				p.AvgRT = a.rtWeighted / float64(a.completed)
			}
			if done := a.completed + a.lost; done > 0 {
				p.LossFraction = float64(a.lost) / float64(done)
			}
			out[hi].Points[li] = p
		}
	}
	return out, nil
}

// BurstSweepConfig describes the burst-tolerance extension figure:
// false alarms per 100k transactions versus burst factor, with aging
// disabled so every trigger is spurious.
type BurstSweepConfig struct {
	// Factors is the burst-factor axis (1 = no bursts).
	Factors []float64
	// Specs are the detector configurations to compare; zero selects
	// the multi-bucket (2,5,3) vs single-bucket (15,1,1) pair.
	Specs []Spec
	// BaseLoad is the quiet-period offered load in CPUs (zero: 4).
	BaseLoad float64
	// BurstOn/BurstOff are the mean phase durations in seconds
	// (zeroes: 60 and 600).
	BurstOn, BurstOff float64
	// Transactions per replication and Replications per point; zeroes
	// select 100,000 and 3.
	Transactions int64
	Replications int
	// Seed is the base random seed.
	Seed uint64
}

func (cfg BurstSweepConfig) defaulted() BurstSweepConfig {
	if len(cfg.Factors) == 0 {
		cfg.Factors = []float64{1, 1.5, 2, 2.5, 3, 3.5, 4, 4.5, 5}
	}
	if len(cfg.Specs) == 0 {
		cfg.Specs = []Spec{sraaSpec(2, 5, 3), sraaSpec(15, 1, 1)}
	}
	if num.Zero(cfg.BaseLoad) {
		cfg.BaseLoad = 4
	}
	if num.Zero(cfg.BurstOn) {
		cfg.BurstOn = 60
	}
	if num.Zero(cfg.BurstOff) {
		cfg.BurstOff = 600
	}
	if cfg.Transactions == 0 {
		cfg.Transactions = 100_000
	}
	if cfg.Replications == 0 {
		cfg.Replications = 3
	}
	return cfg
}

// BurstPoint is one (spec, factor) cell.
type BurstPoint struct {
	Factor             float64
	FalseAlarmsPer100k float64
	LossFraction       float64
}

// BurstSeries is the factor sweep for one detector configuration.
type BurstSeries struct {
	Spec   Spec
	Points []BurstPoint
}

// burstAgg pools the replications of one (spec, factor) point.
type burstAgg struct{ done, lost, rejuv int64 }

// RunBurstSweep executes the burst-tolerance experiment: one flattened
// (spec, factor, replication) cell grid on Run, folded in cell order.
func RunBurstSweep(cfg BurstSweepConfig) ([]BurstSeries, error) {
	cfg = cfg.defaulted()
	nf, nr := len(cfg.Factors), cfg.Replications
	agg := make([]burstAgg, len(cfg.Specs)*nf)
	err := Run(0, len(agg)*nr,
		func(cell int) (ecommerce.Result, error) {
			spec, fi, rep := cfg.Specs[cell/nr/nf], cell/nr%nf, cell%nr
			det, err := spec.NewDetector()
			if err != nil {
				return ecommerce.Result{}, fmt.Errorf("experiment: burst sweep %s: %w", spec.Label(), err)
			}
			mcfg := ecommerce.Config{
				ArrivalRate:  cfg.BaseLoad * 0.2,
				DisableGC:    true, // no aging: all triggers are false alarms
				Transactions: cfg.Transactions,
				Seed:         cfg.Seed,
				Stream:       uint64(fi)*1_000 + uint64(rep) + 1,
			}
			if factor := cfg.Factors[fi]; factor > 1 {
				mcfg.BurstFactor = factor
				mcfg.BurstOn = cfg.BurstOn
				mcfg.BurstOff = cfg.BurstOff
			}
			m, err := ecommerce.New(mcfg, det)
			if err != nil {
				return ecommerce.Result{}, err
			}
			return m.Run()
		},
		func(cell int, res ecommerce.Result) error {
			a := &agg[cell/nr]
			a.done += res.Completed + res.Lost
			a.lost += res.Lost
			a.rejuv += res.Rejuvenations
			return nil
		})
	if err != nil {
		return nil, err
	}

	out := make([]BurstSeries, len(cfg.Specs))
	for si, spec := range cfg.Specs {
		out[si] = BurstSeries{Spec: spec, Points: make([]BurstPoint, nf)}
		for fi, factor := range cfg.Factors {
			a := agg[si*nf+fi]
			p := BurstPoint{Factor: factor}
			if a.done > 0 {
				p.FalseAlarmsPer100k = float64(a.rejuv) * 100_000 / float64(a.done)
				p.LossFraction = float64(a.lost) / float64(a.done)
			}
			out[si].Points[fi] = p
		}
	}
	return out, nil
}
