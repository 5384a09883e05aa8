package experiment

import "fmt"

// Metric selects which aggregate a figure plots.
type Metric string

// Metrics used by the paper's figures.
const (
	MetricRT   Metric = "rt"   // average response time (seconds)
	MetricLoss Metric = "loss" // average fraction of transaction loss
)

// Value extracts the metric from a point.
func (m Metric) Value(p Point) float64 {
	if m == MetricLoss {
		return p.LossFraction
	}
	return p.AvgRT
}

// AxisLabel returns the paper's y-axis label for the metric.
func (m Metric) AxisLabel() string {
	if m == MetricLoss {
		return "Average Fraction of Transaction Loss"
	}
	return "Average Response Time"
}

// Figure is one of the paper's simulation figures: a set of specs swept
// over the load axis and plotted as one metric.
type Figure struct {
	ID     string // e.g. "fig09"
	Number int    // paper figure number
	Title  string
	Metric Metric
	Specs  []Spec
}

// PaperFigures returns the definitions of every simulation figure in the
// paper's evaluation (Figs. 9–16). Fig. 5 is analytical and produced by
// the mmc package; Figs. 1–4 are structural diagrams.
func PaperFigures() []Figure {
	fig9Specs := []Spec{
		sraaSpec(1, 3, 5), sraaSpec(1, 5, 3), sraaSpec(3, 1, 5),
		sraaSpec(3, 5, 1), sraaSpec(5, 1, 3), sraaSpec(5, 3, 1),
		sraaSpec(15, 1, 1),
	}
	fig12Specs := []Spec{
		sraaSpec(1, 3, 10), sraaSpec(1, 5, 6), sraaSpec(3, 1, 10),
		sraaSpec(3, 5, 2), sraaSpec(5, 1, 6), sraaSpec(5, 3, 2),
		sraaSpec(15, 1, 2),
	}
	return []Figure{
		{
			ID: "fig09", Number: 9,
			Title:  "Response time, SRAA, n*K*D = 15",
			Metric: MetricRT,
			Specs:  fig9Specs,
		},
		{
			ID: "fig10", Number: 10,
			Title:  "Fraction of transaction loss, SRAA, n*K*D = 15",
			Metric: MetricLoss,
			Specs:  fig9Specs,
		},
		{
			ID: "fig11", Number: 11,
			Title:  "Response time, SRAA, n*K*D = 30, sample size doubled",
			Metric: MetricRT,
			Specs: []Spec{
				sraaSpec(2, 3, 5), sraaSpec(2, 5, 3), sraaSpec(6, 1, 5),
				sraaSpec(6, 5, 1), sraaSpec(10, 1, 3), sraaSpec(10, 3, 1),
				sraaSpec(30, 1, 1),
			},
		},
		{
			ID: "fig12", Number: 12,
			Title:  "Response time, SRAA, n*K*D = 30, bucket depth doubled",
			Metric: MetricRT,
			Specs:  fig12Specs,
		},
		{
			ID: "fig13", Number: 13,
			Title:  "Fraction of transaction loss, SRAA, n*K*D = 30, bucket depth doubled",
			Metric: MetricLoss,
			Specs:  fig12Specs,
		},
		{
			ID: "fig14", Number: 14,
			Title:  "Response time, SRAA, n*K*D = 30, number of buckets doubled",
			Metric: MetricRT,
			Specs: []Spec{
				sraaSpec(1, 6, 5), sraaSpec(1, 10, 3), sraaSpec(3, 2, 5),
				sraaSpec(3, 10, 1), sraaSpec(5, 6, 1), sraaSpec(15, 2, 1),
				sraaSpec(15, 1, 2),
			},
		},
		{
			ID: "fig15", Number: 15,
			Title:  "Response time, SARAA, n*K*D = 30",
			Metric: MetricRT,
			Specs: []Spec{
				saraaSpec(2, 3, 5), saraaSpec(2, 5, 3),
				saraaSpec(6, 5, 1), saraaSpec(10, 3, 1),
			},
		},
		{
			ID: "fig16", Number: 16,
			Title:  "Response time, SRAA vs SARAA vs CLTA, n*K*D = 30",
			Metric: MetricRT,
			Specs: []Spec{
				{Algorithm: CLTA, N: 30, K: 1, D: 1, Quantile: 1.96},
				sraaSpec(2, 5, 3),
				saraaSpec(2, 5, 3),
			},
		},
	}
}

// FigureByID returns the paper figure with the given ID or number
// ("fig09", "9", "09" all match figure 9).
func FigureByID(id string) (Figure, error) {
	for _, f := range PaperFigures() {
		if f.ID == id || fmt.Sprintf("%d", f.Number) == id || fmt.Sprintf("%02d", f.Number) == id {
			return f, nil
		}
	}
	return Figure{}, fmt.Errorf("experiment: unknown figure %q", id)
}

// FigureResult is a fully computed figure.
type FigureResult struct {
	Figure Figure
	Series []Series
}

// RunFigures computes every series of the figures under the sweep
// configuration with one RunSweep call over their concatenated specs,
// so a spec that several figures plot is simulated once.
func RunFigures(cfg SweepConfig, figs ...Figure) ([]FigureResult, error) {
	var specs []Spec
	for _, f := range figs {
		specs = append(specs, f.Specs...)
	}
	series, err := RunSweep(cfg, specs...)
	if err != nil {
		return nil, err
	}
	out := make([]FigureResult, len(figs))
	for i, f := range figs {
		n := len(f.Specs)
		out[i] = FigureResult{Figure: f, Series: series[:n:n]}
		series = series[n:]
	}
	return out, nil
}
