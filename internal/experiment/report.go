package experiment

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// WriteCSV emits the figure as CSV: one row per load, one column per
// series, matching how the paper's charts are tabulated.
func (fr FigureResult) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := []string{"offered_load_cpus"}
	for _, s := range fr.Series {
		header = append(header, s.Spec.Label())
	}
	if err := cw.Write(header); err != nil {
		return fmt.Errorf("experiment: write CSV header: %w", err)
	}
	if len(fr.Series) == 0 {
		cw.Flush()
		return cw.Error()
	}
	for i, p := range fr.Series[0].Points {
		row := []string{strconv.FormatFloat(p.Load, 'g', -1, 64)}
		for _, s := range fr.Series {
			row = append(row, strconv.FormatFloat(fr.Figure.Metric.Value(s.Points[i]), 'g', 8, 64))
		}
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("experiment: write CSV row: %w", err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteDetailedCSV emits the figure in long format — one row per
// (series, load) cell with every aggregate — for post-processing that
// needs more than the plotted metric:
//
//	series,load_cpus,avg_rt,rt_stddev,avg_rt_stderr,loss_fraction,rejuvenations,gcs,replications
func (fr FigureResult) WriteDetailedCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := []string{"series", "load_cpus", "avg_rt", "rt_stddev", "avg_rt_stderr",
		"loss_fraction", "rejuvenations", "gcs", "replications"}
	if err := cw.Write(header); err != nil {
		return fmt.Errorf("experiment: write detailed CSV header: %w", err)
	}
	fmtF := func(v float64) string { return strconv.FormatFloat(v, 'g', 8, 64) }
	for _, s := range fr.Series {
		for _, p := range s.Points {
			row := []string{
				s.Spec.Label(),
				strconv.FormatFloat(p.Load, 'g', -1, 64),
				fmtF(p.AvgRT), fmtF(p.RTStdDev), fmtF(p.AvgRTStdErr),
				fmtF(p.LossFraction), fmtF(p.Rejuvenations), fmtF(p.GCs),
				strconv.Itoa(p.Replications),
			}
			if err := cw.Write(row); err != nil {
				return fmt.Errorf("experiment: write detailed CSV row: %w", err)
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// Table renders the figure as an aligned text table.
func (fr FigureResult) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure %d: %s\n", fr.Figure.Number, fr.Figure.Title)
	fmt.Fprintf(&b, "y-axis: %s\n\n", fr.Figure.Metric.AxisLabel())

	cols := make([][]string, 0, len(fr.Series)+1)
	loadCol := []string{"load (CPUs)"}
	if len(fr.Series) > 0 {
		for _, p := range fr.Series[0].Points {
			loadCol = append(loadCol, fmt.Sprintf("%.1f", p.Load))
		}
	}
	cols = append(cols, loadCol)
	for _, s := range fr.Series {
		col := []string{s.Spec.Label()}
		for _, p := range s.Points {
			col = append(col, formatMetric(fr.Figure.Metric, fr.Figure.Metric.Value(p)))
		}
		cols = append(cols, col)
	}
	writeColumns(&b, cols)
	return b.String()
}

func formatMetric(m Metric, v float64) string {
	if m == MetricLoss {
		return fmt.Sprintf("%.6f", v)
	}
	return fmt.Sprintf("%.2f", v)
}

// writeColumns renders equal-height columns right-aligned with two
// spaces of separation.
func writeColumns(b *strings.Builder, cols [][]string) {
	widths := make([]int, len(cols))
	for j, col := range cols {
		for _, cell := range col {
			if len(cell) > widths[j] {
				widths[j] = len(cell)
			}
		}
	}
	rows := 0
	for _, col := range cols {
		if len(col) > rows {
			rows = len(col)
		}
	}
	for i := 0; i < rows; i++ {
		for j, col := range cols {
			cell := ""
			if i < len(col) {
				cell = col[i]
			}
			if j > 0 {
				b.WriteString("  ")
			}
			for pad := widths[j] - len(cell); pad > 0; pad-- {
				b.WriteByte(' ')
			}
			b.WriteString(cell)
		}
		b.WriteByte('\n')
	}
}
