package experiment

import "fmt"

// Quote is one value the paper's text quotes explicitly, pinned to the
// configuration, load point, and metric it refers to. The quotes drive
// the automated paper-vs-measured table of cmd/quotes and the record in
// EXPERIMENTS.md.
type Quote struct {
	// Source cites where in the paper the value appears.
	Source string
	// Spec and Load identify the simulation cell.
	Spec Spec
	Load float64
	// Metric selects RT or loss.
	Metric Metric
	// Paper is the value the paper reports.
	Paper float64
}

// Label renders a short identifier for tables.
func (q Quote) Label() string {
	unit := "RT"
	if q.Metric == MetricLoss {
		unit = "loss"
	}
	return fmt.Sprintf("%s %s@%g", q.Spec.Label(), unit, q.Load)
}

// PaperQuotes returns every simulation value the paper's Section 5 text
// quotes numerically.
func PaperQuotes() []Quote {
	clta := Spec{Algorithm: CLTA, N: 30, K: 1, D: 1, Quantile: 1.96}
	return []Quote{
		// Section 5.2 (sample size doubling).
		{Source: "§5.2", Spec: sraaSpec(15, 1, 1), Load: 9, Metric: MetricRT, Paper: 6.2},
		{Source: "§5.2", Spec: sraaSpec(30, 1, 1), Load: 9, Metric: MetricRT, Paper: 9.9},
		{Source: "§5.2", Spec: sraaSpec(3, 5, 1), Load: 9, Metric: MetricRT, Paper: 10.45},
		{Source: "§5.2", Spec: sraaSpec(6, 5, 1), Load: 9, Metric: MetricRT, Paper: 14.3},
		// Section 5.4 (number of buckets doubling).
		{Source: "§5.4", Spec: sraaSpec(15, 2, 1), Load: 9, Metric: MetricRT, Paper: 11.05},
		{Source: "§5.4", Spec: sraaSpec(3, 10, 1), Load: 9, Metric: MetricRT, Paper: 14.9},
		{Source: "§5.4", Spec: sraaSpec(3, 2, 5), Load: 9, Metric: MetricRT, Paper: 10.3},
		{Source: "§5.4", Spec: sraaSpec(3, 2, 5), Load: 0.5, Metric: MetricLoss, Paper: 0.000026},
		{Source: "§5.4", Spec: sraaSpec(5, 2, 3), Load: 9, Metric: MetricRT, Paper: 10.4},
		{Source: "§5.4", Spec: sraaSpec(5, 2, 3), Load: 0.5, Metric: MetricLoss, Paper: 0.0003},
		// Section 5.5 (SARAA vs SRAA).
		{Source: "§5.5", Spec: sraaSpec(2, 5, 3), Load: 9, Metric: MetricRT, Paper: 11.94},
		{Source: "§5.5", Spec: saraaSpec(2, 5, 3), Load: 9, Metric: MetricRT, Paper: 10.5},
		{Source: "§5.5", Spec: sraaSpec(2, 3, 5), Load: 9, Metric: MetricRT, Paper: 11.05},
		{Source: "§5.5", Spec: saraaSpec(2, 3, 5), Load: 9, Metric: MetricRT, Paper: 9.8},
		{Source: "§5.5", Spec: saraaSpec(6, 5, 1), Load: 9, Metric: MetricRT, Paper: 11},
		// Section 5.6 (algorithm comparison).
		{Source: "§5.6", Spec: clta, Load: 9, Metric: MetricRT, Paper: 12.8},
		{Source: "§5.6", Spec: clta, Load: 0.5, Metric: MetricLoss, Paper: 0.001406},
	}
}

// QuoteResult pairs a quote with its measured value.
type QuoteResult struct {
	Quote    Quote
	Measured float64
}

// EvaluateQuotes measures every quote under the sweep fidelity
// settings (Loads is ignored; each quote supplies its own point).
func EvaluateQuotes(cfg SweepConfig, quotes []Quote) ([]QuoteResult, error) {
	out := make([]QuoteResult, 0, len(quotes))
	for _, q := range quotes {
		cfg.Loads = []float64{q.Load}
		series, err := RunSweep(cfg, q.Spec)
		if err != nil {
			return nil, fmt.Errorf("experiment: quote %s: %w", q.Label(), err)
		}
		out = append(out, QuoteResult{Quote: q, Measured: q.Metric.Value(series[0].Points[0])})
	}
	return out, nil
}
