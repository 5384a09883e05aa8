package experiment

import (
	"encoding/csv"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"

	"rejuv/internal/core"
)

func TestSpecLabels(t *testing.T) {
	tests := []struct {
		spec Spec
		want string
	}{
		{sraaSpec(2, 5, 3), "SRAA (n=2, K=5, D=3)"},
		{saraaSpec(6, 5, 1), "SARAA (n=6, K=5, D=1)"},
		{Spec{Algorithm: CLTA, N: 30, Quantile: 1.96}, "CLTA (n=30, N=1.96)"},
		{Spec{Algorithm: None}, "no rejuvenation"},
		{Spec{Algorithm: Shewhart, Quantile: 3}, "Shewhart (L=3)"},
		{Spec{Algorithm: EWMA, Weight: 0.2, Quantile: 3}, "EWMA (w=0.2, L=3)"},
		{Spec{Algorithm: CUSUM, Weight: 0.5, Quantile: 5}, "CUSUM (k=0.5, h=5)"},
	}
	for _, tt := range tests {
		if got := tt.spec.Label(); got != tt.want {
			t.Errorf("Label() = %q, want %q", got, tt.want)
		}
	}
}

func TestSpecBuildsEveryAlgorithm(t *testing.T) {
	specs := []Spec{
		sraaSpec(2, 5, 3),
		saraaSpec(2, 5, 3),
		{Algorithm: CLTA, N: 30, Quantile: 1.96},
		{Algorithm: Shewhart, Quantile: 3},
		{Algorithm: EWMA, Weight: 0.2, Quantile: 3},
		{Algorithm: CUSUM, Weight: 0.5, Quantile: 5},
	}
	for _, s := range specs {
		det, err := s.NewDetector()
		if err != nil {
			t.Errorf("%s: %v", s.Label(), err)
			continue
		}
		if det == nil {
			t.Errorf("%s: nil detector", s.Label())
		}
	}
	if det, err := (Spec{Algorithm: None}).NewDetector(); err != nil || det != nil {
		t.Errorf("None: det=%v err=%v, want nil,nil", det, err)
	}
	if _, err := (Spec{Algorithm: "bogus"}).NewDetector(); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

func TestSpecDefaultsToPaperBaseline(t *testing.T) {
	det, err := sraaSpec(1, 1, 1).NewDetector()
	if err != nil {
		t.Fatal(err)
	}
	sraa, ok := det.(*core.SRAA)
	if !ok {
		t.Fatalf("detector type %T", det)
	}
	if sraa.Config().Baseline != PaperBaseline {
		t.Fatalf("baseline %+v, want paper's (5,5)", sraa.Config().Baseline)
	}
}

func TestPaperLoadsAxis(t *testing.T) {
	loads := PaperLoads()
	if len(loads) != 20 {
		t.Fatalf("%d load points, want 20", len(loads))
	}
	if loads[0] != 0.5 || loads[19] != 10 {
		t.Fatalf("axis [%v..%v], want [0.5..10]", loads[0], loads[19])
	}
	for i := 1; i < len(loads); i++ {
		if math.Abs(loads[i]-loads[i-1]-0.5) > 1e-12 {
			t.Fatalf("non-uniform step at %d: %v", i, loads)
		}
	}
}

func TestPaperFiguresDefinitions(t *testing.T) {
	figs := PaperFigures()
	if len(figs) != 8 {
		t.Fatalf("%d figures, want 8 (Figs. 9-16)", len(figs))
	}
	product := map[int]int{9: 15, 10: 15, 11: 30, 12: 30, 13: 30, 14: 30, 15: 30, 16: 30}
	seriesCount := map[int]int{9: 7, 10: 7, 11: 7, 12: 7, 13: 7, 14: 7, 15: 4, 16: 3}
	for _, f := range figs {
		if len(f.Specs) != seriesCount[f.Number] {
			t.Errorf("figure %d has %d series, want %d", f.Number, len(f.Specs), seriesCount[f.Number])
		}
		for _, s := range f.Specs {
			if s.Algorithm == SRAA || s.Algorithm == SARAA {
				if got := s.N * s.K * s.D; got != product[f.Number] {
					t.Errorf("figure %d series %s: n*K*D = %d, want %d",
						f.Number, s.Label(), got, product[f.Number])
				}
			}
		}
	}
	// Figures 10 and 13 are loss plots, the rest response time.
	for _, f := range figs {
		wantLoss := f.Number == 10 || f.Number == 13
		if (f.Metric == MetricLoss) != wantLoss {
			t.Errorf("figure %d metric %q", f.Number, f.Metric)
		}
	}
}

func TestFigureByID(t *testing.T) {
	for _, id := range []string{"fig09", "9", "09"} {
		f, err := FigureByID(id)
		if err != nil || f.Number != 9 {
			t.Errorf("FigureByID(%q) = %v, %v", id, f.Number, err)
		}
	}
	if _, err := FigureByID("fig99"); err == nil {
		t.Error("unknown figure accepted")
	}
}

// quickSweep is a tiny but real sweep used by the harness tests.
func quickSweep() SweepConfig {
	return SweepConfig{
		Loads:        []float64{0.5, 8},
		Replications: 2,
		Transactions: 5_000,
		Seed:         1,
	}
}

// pointBits flattens every aggregated field of the points to raw bits,
// so comparisons are bitwise: the pooled Welford moments RTStdDev and
// AvgRTStdErr are sensitive to fold order.
func pointBits(points []Point) []uint64 {
	var bits []uint64
	for _, p := range points {
		for _, f := range []float64{p.Load, p.AvgRT, p.RTStdDev, p.AvgRTStdErr, p.LossFraction, p.Rejuvenations, p.GCs} {
			bits = append(bits, math.Float64bits(f))
		}
		bits = append(bits, uint64(p.Replications))
	}
	return bits
}

func TestRunSweepShape(t *testing.T) {
	out, err := RunSweep(quickSweep(), sraaSpec(2, 5, 3))
	if err != nil {
		t.Fatal(err)
	}
	series := out[0]
	if len(series.Points) != 2 {
		t.Fatalf("%d points, want 2", len(series.Points))
	}
	for i, p := range series.Points {
		if p.Replications != 2 {
			t.Errorf("point %d ran %d replications, want 2", i, p.Replications)
		}
		if p.AvgRT <= 0 || math.IsNaN(p.AvgRT) {
			t.Errorf("point %d has avg RT %v", i, p.AvgRT)
		}
		if p.LossFraction < 0 || p.LossFraction > 1 {
			t.Errorf("point %d has loss %v", i, p.LossFraction)
		}
	}
	// Higher load must not make things better in this model.
	if series.Points[1].AvgRT < series.Points[0].AvgRT {
		t.Errorf("RT fell with load: %v -> %v", series.Points[0].AvgRT, series.Points[1].AvgRT)
	}
}

// TestRunSweepCellsIndependentOfPosition pins the invariant that lets
// RunSweep and RunFigures share work: a cell's random stream never
// depends on its spec's position in the grid, so a repeated spec, or a
// spec run alone, yields bit-identical series.
func TestRunSweepCellsIndependentOfPosition(t *testing.T) {
	cfg := quickSweep()
	a, b := sraaSpec(2, 5, 3), saraaSpec(2, 5, 3)
	alone := func(s Spec) []uint64 {
		out, err := RunSweep(cfg, s)
		if err != nil {
			t.Fatal(err)
		}
		return pointBits(out[0].Points)
	}
	out, err := RunSweep(cfg, a, b, a)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 || out[0].Spec != a || out[1].Spec != b || out[2].Spec != a {
		t.Fatalf("series out of argument order: %v", out)
	}
	wantA, wantB := alone(a), alone(b)
	for i, want := range [][]uint64{wantA, wantB, wantA} {
		if got := pointBits(out[i].Points); !slices.Equal(got, want) {
			t.Errorf("series %d (%s) differs from the spec run alone:\n%x\n%x", i, out[i].Spec.Label(), got, want)
		}
	}

	fig9, err := FigureByID("fig09")
	if err != nil {
		t.Fatal(err)
	}
	fig10, err := FigureByID("fig10")
	if err != nil {
		t.Fatal(err)
	}
	figs, err := RunFigures(cfg, fig9, fig10)
	if err != nil {
		t.Fatal(err)
	}
	if figs[0].Figure.ID != "fig09" || figs[1].Figure.ID != "fig10" || len(figs[1].Series) != len(fig10.Specs) {
		t.Fatalf("figures out of order or mis-sliced: %s, %s with %d series", figs[0].Figure.ID, figs[1].Figure.ID, len(figs[1].Series))
	}
	for i, s := range figs[1].Series {
		if s.Spec != figs[0].Series[i].Spec || !slices.Equal(pointBits(s.Points), pointBits(figs[0].Series[i].Points)) {
			t.Errorf("fig10 series %d (%s) differs from fig09's", i, s.Spec.Label())
		}
	}
}

// TestRunSweepDeterministicAcrossWorkerCounts pins that RunSweep folds
// replication results in cell order, so every aggregated field of a
// multi-spec sweep with a repeated spec, including the order-sensitive
// pooled Welford moments, is bit-identical however many goroutines the
// engine runs on (it runs on GOMAXPROCS of them).
func TestRunSweepDeterministicAcrossWorkerCounts(t *testing.T) {
	run := func(procs int) []uint64 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		out, err := RunSweep(quickSweep(), sraaSpec(2, 5, 3), saraaSpec(2, 5, 3), sraaSpec(2, 5, 3))
		if err != nil {
			t.Fatal(err)
		}
		var bits []uint64
		for _, s := range out {
			bits = append(bits, pointBits(s.Points)...)
		}
		return bits
	}
	ref := run(1)
	if len(ref) == 0 {
		t.Fatal("empty sweep")
	}
	for _, procs := range []int{3, 7} {
		if got := run(procs); !slices.Equal(got, ref) {
			t.Fatalf("GOMAXPROCS=%d differs bitwise from GOMAXPROCS=1:\n%x\n%x", procs, got, ref)
		}
	}
}

func TestRunSweepPropagatesDetectorError(t *testing.T) {
	if _, err := RunSweep(quickSweep(), Spec{Algorithm: "bogus"}); err == nil {
		t.Fatal("bogus spec accepted")
	}
}

func TestRunFigureAndReports(t *testing.T) {
	fig := Figure{
		ID: "figtest", Number: 99, Title: "test figure", Metric: MetricRT,
		Specs: []Spec{sraaSpec(15, 1, 1), {Algorithm: None}},
	}
	figs, err := RunFigures(quickSweep(), fig)
	if err != nil {
		t.Fatal(err)
	}
	res := figs[0]
	if len(res.Series) != 2 {
		t.Fatalf("%d series, want 2", len(res.Series))
	}

	var out strings.Builder
	if err := res.WriteCSV(&out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 3 { // header + 2 load rows
		t.Fatalf("CSV has %d lines, want 3:\n%s", len(lines), out.String())
	}
	if !strings.Contains(lines[0], "SRAA (n=15") || !strings.Contains(lines[0], "no rejuvenation") {
		t.Fatalf("CSV header missing labels: %q", lines[0])
	}

	table := res.Table()
	for _, want := range []string{"Figure 99", "test figure", "load (CPUs)", "0.5", "8.0"} {
		if !strings.Contains(table, want) {
			t.Errorf("table missing %q:\n%s", want, table)
		}
	}
}

func TestMetricHelpers(t *testing.T) {
	p := Point{AvgRT: 7, LossFraction: 0.25}
	if MetricRT.Value(p) != 7 || MetricLoss.Value(p) != 0.25 {
		t.Fatal("metric extraction broken")
	}
	if MetricRT.AxisLabel() == MetricLoss.AxisLabel() {
		t.Fatal("metric axis labels identical")
	}
}

func TestWriteDetailedCSV(t *testing.T) {
	fig := Figure{
		ID: "figdetail", Number: 98, Title: "detail", Metric: MetricRT,
		Specs: []Spec{sraaSpec(15, 1, 1)},
	}
	figs, err := RunFigures(quickSweep(), fig)
	if err != nil {
		t.Fatal(err)
	}
	res := figs[0]
	var buf strings.Builder
	if err := res.WriteDetailedCSV(&buf); err != nil {
		t.Fatal(err)
	}
	records, err := csv.NewReader(strings.NewReader(buf.String())).ReadAll()
	if err != nil {
		t.Fatalf("detailed CSV does not parse: %v\n%s", err, buf.String())
	}
	if len(records) != 3 { // header + 2 loads x 1 series
		t.Fatalf("detailed CSV has %d records, want 3:\n%s", len(records), buf.String())
	}
	if records[0][0] != "series" || records[0][2] != "avg_rt" {
		t.Fatalf("header %v", records[0])
	}
	for _, rec := range records[1:] {
		if len(rec) != 9 {
			t.Fatalf("row has %d columns, want 9: %v", len(rec), rec)
		}
		if rec[0] != "SRAA (n=15, K=1, D=1)" {
			t.Fatalf("series label %q", rec[0])
		}
	}
}
