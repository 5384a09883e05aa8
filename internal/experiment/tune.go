package experiment

import (
	"fmt"
	"sort"

	"rejuv/internal/num"
)

// TuneConfig describes a grid search for algorithm parameters — the
// paper's proposed future work of determining optimal (n, K, D)
// configurations, run offline over the simulation model. The search
// scores each candidate by the paper's own assessment basis (Section 5):
// the average response time at high load plus the transaction loss at
// low load, combined linearly.
type TuneConfig struct {
	// Algorithm to tune: SRAA or SARAA.
	Algorithm Algorithm
	// Budget fixes the product n*K*D (the paper sweeps 15 and 30).
	// Zero searches the full box [1,MaxN]x[1,MaxK]x[1,MaxD] instead.
	Budget int
	// MaxN, MaxK, MaxD bound the free search; ignored when Budget > 0.
	MaxN, MaxK, MaxD int
	// HighLoad and LowLoad are the two assessment points, in CPUs.
	// Zero selects the paper's 9.0 and 0.5.
	HighLoad, LowLoad float64
	// RTWeight is the cost per second of average response time at high
	// load; LossWeight the cost per unit of loss fraction at low load.
	// Zeroes select 1 and 100, which prices 1% low-load loss like one
	// second of high-load response time.
	RTWeight, LossWeight float64
	// Replications and Transactions control the fidelity of each
	// evaluation; zeroes select 3 x 50,000.
	Replications int
	Transactions int64
	// Seed is the base random seed shared by all candidates, so the
	// comparison uses common random numbers.
	Seed uint64
}

func (cfg TuneConfig) defaulted() TuneConfig {
	if cfg.Algorithm == "" {
		cfg.Algorithm = SRAA
	}
	if num.Zero(cfg.HighLoad) {
		cfg.HighLoad = 9.0
	}
	if num.Zero(cfg.LowLoad) {
		cfg.LowLoad = 0.5
	}
	if num.Zero(cfg.RTWeight) {
		cfg.RTWeight = 1
	}
	if num.Zero(cfg.LossWeight) {
		cfg.LossWeight = 100
	}
	if cfg.Replications == 0 {
		cfg.Replications = 3
	}
	if cfg.Transactions == 0 {
		cfg.Transactions = 50_000
	}
	if cfg.Budget == 0 {
		if cfg.MaxN == 0 {
			cfg.MaxN = 8
		}
		if cfg.MaxK == 0 {
			cfg.MaxK = 6
		}
		if cfg.MaxD == 0 {
			cfg.MaxD = 6
		}
	}
	return cfg
}

// TuneResult is one evaluated candidate.
type TuneResult struct {
	Spec Spec
	// HighRT is the average response time at the high assessment load.
	HighRT float64
	// LowLoss is the loss fraction at the low assessment load.
	LowLoss float64
	// HighLoss is the loss fraction at the high assessment load
	// (informational; not part of the cost).
	HighLoss float64
	// Cost is RTWeight*HighRT + LossWeight*LowLoss.
	Cost float64
}

// Candidates enumerates the (n, K, D) triples the configuration admits:
// all factorizations of Budget, or the bounded box.
func (cfg TuneConfig) Candidates() []Spec {
	cfg = cfg.defaulted()
	var out []Spec
	add := func(n, k, d int) {
		s := Spec{Algorithm: cfg.Algorithm, N: n, K: k, D: d}
		out = append(out, s)
	}
	if cfg.Budget > 0 {
		for n := 1; n <= cfg.Budget; n++ {
			if cfg.Budget%n != 0 {
				continue
			}
			rest := cfg.Budget / n
			for k := 1; k <= rest; k++ {
				if rest%k != 0 {
					continue
				}
				add(n, k, rest/k)
			}
		}
		return out
	}
	for n := 1; n <= cfg.MaxN; n++ {
		for k := 1; k <= cfg.MaxK; k++ {
			for d := 1; d <= cfg.MaxD; d++ {
				add(n, k, d)
			}
		}
	}
	return out
}

// Tune evaluates every candidate at the two assessment loads and
// returns the results sorted by ascending cost.
func Tune(cfg TuneConfig) ([]TuneResult, error) {
	cfg = cfg.defaulted()
	candidates := cfg.Candidates()
	if len(candidates) == 0 {
		return nil, fmt.Errorf("experiment: tune admits no candidates")
	}
	sweep := SweepConfig{
		Loads:        []float64{cfg.LowLoad, cfg.HighLoad},
		Replications: cfg.Replications,
		Transactions: cfg.Transactions,
		Seed:         cfg.Seed,
	}
	all, err := RunSweep(sweep, candidates...)
	if err != nil {
		return nil, fmt.Errorf("experiment: tune: %w", err)
	}
	results := make([]TuneResult, len(all))
	for i, series := range all {
		low, high := series.Points[0], series.Points[1]
		r := TuneResult{
			Spec:     series.Spec,
			HighRT:   high.AvgRT,
			LowLoss:  low.LossFraction,
			HighLoss: high.LossFraction,
		}
		r.Cost = cfg.RTWeight*r.HighRT + cfg.LossWeight*r.LowLoss
		results[i] = r
	}
	sort.Slice(results, func(i, j int) bool {
		if !num.Same(results[i].Cost, results[j].Cost) {
			return results[i].Cost < results[j].Cost
		}
		return results[i].Spec.Label() < results[j].Spec.Label()
	})
	return results, nil
}
