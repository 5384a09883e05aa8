package conformance

import (
	"fmt"

	"rejuv/internal/ecommerce"
	"rejuv/internal/mmc"
	"rejuv/internal/stats"
	"rejuv/internal/xrand"
)

// Sampling helpers for the oracle tests: simulated response times from
// the Section-3 model in its pure M/M/c configuration, and iid
// reference samples drawn from the closed-form response-time mixture.

// Pool accumulates per-replication samples into one pooled estimate.
type Pool struct {
	// Values holds every collected sample value in replication order.
	Values []float64
	// Moments is the streaming pooled mean/variance over Values.
	Moments stats.Welford
	// Reps counts the replications folded in.
	Reps int
}

// add folds one replication's values into the pool.
func (p *Pool) add(vs []float64) {
	p.Values = append(p.Values, vs...)
	for _, v := range vs {
		p.Moments.Add(v)
	}
	p.Reps++
}

// SimSample runs the ecommerce model with both aging mechanisms
// disabled — the configuration the paper itself uses to validate the
// simulator against Section 4.1 — and returns completed-transaction
// response times. The first warmup completions are dropped so the
// sample is (approximately) steady state, and the remainder is thinned
// to every thin-th value to dilute the serial correlation of
// consecutive sojourn times; KS/AD/chi-square p-values assume
// independent draws.
func SimSample(sys mmc.System, seed, stream uint64, txns int64, warmup int, thin int) ([]float64, error) {
	if thin < 1 {
		thin = 1
	}
	cfg := ecommerce.Config{
		ArrivalRate:     sys.Lambda,
		Servers:         sys.C,
		ServiceRate:     sys.Mu,
		DisableOverhead: true,
		DisableGC:       true,
		Transactions:    txns,
		Seed:            seed,
		Stream:          stream,
	}
	m, err := ecommerce.New(cfg, nil)
	if err != nil {
		return nil, fmt.Errorf("conformance: building M/M/c model: %w", err)
	}
	var rts []float64
	seen := 0
	m.OnComplete = func(rt float64) {
		seen++
		if seen <= warmup {
			return
		}
		if (seen-warmup-1)%thin == 0 {
			rts = append(rts, rt)
		}
	}
	if _, err := m.Run(); err != nil {
		return nil, fmt.Errorf("conformance: running M/M/c model: %w", err)
	}
	if len(rts) == 0 {
		return nil, fmt.Errorf("conformance: simulation produced no post-warmup response times (txns=%d warmup=%d)", txns, warmup)
	}
	return rts, nil
}

// AnalyticSample draws n iid response times from the closed-form
// steady-state mixture of paper eq. (1), as the reference sample for
// two-sample tests against the simulator.
func AnalyticSample(sys mmc.System, seed, stream uint64, n int) []float64 {
	d := sys.RTDist()
	r := xrand.NewStream(seed, stream)
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = d.Sample(r)
	}
	return xs
}

// BlockMeans reduces the sample to means of consecutive
// non-overlapping blocks of n values, dropping the remainder — the X̄n
// statistic of paper eq. (4) computed from data.
func BlockMeans(xs []float64, n int) ([]float64, error) {
	if n <= 0 {
		return nil, fmt.Errorf("conformance: block size must be positive, got %d", n)
	}
	k := len(xs) / n
	if k == 0 {
		return nil, fmt.Errorf("conformance: sample of %d values has no complete block of %d", len(xs), n)
	}
	out := make([]float64, k)
	for b := 0; b < k; b++ {
		sum := 0.0
		for i := b * n; i < (b+1)*n; i++ {
			sum += xs[i]
		}
		out[b] = sum / float64(n)
	}
	return out, nil
}
