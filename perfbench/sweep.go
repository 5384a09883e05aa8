package main

import (
	"encoding/csv"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"os"
	"strconv"

	"rejuv/internal/ecommerce"
	"rejuv/internal/experiment"
	"rejuv/internal/metrics"
	"rejuv/internal/stats"
)

// The paper-sweep grid: the Fig. 16 specs × the quick-mode load axis ×
// two replications per pass, 20 000 transactions per cell — exactly
// what `figures -fig 16 -quick` runs, so the first pass at the default
// seed reproduces its pinned CSV.
const (
	sweepReps         = 2
	sweepTxns         = 20_000
	sweepServiceRate  = 0.2 // the paper's mu
	sweepCellsPerPass = 3 * 7 * sweepReps
	// sweepMaxPasses keeps replication indices below 1000, so the
	// per-cell stream id loadIdx*1000+rep+1 never collides with the next
	// load's; later passes wrap around.
	sweepMaxPasses = 999 / sweepReps
	// sweepSkippedCell is the cell the skip-cell fault leaves out.
	sweepSkippedCell = 5
)

var sweepLoads = []float64{0.5, 2, 4, 6, 8, 9, 10}

// goldenCSV is the pinned Fig. 16 quick-mode CSV at the default seed,
// relative to the repository root.
const goldenCSV = "testdata/cli/figures_fig16_csv.golden"

// sweep is the paper-sweep workload: one op is one cell, New plus Run.
type sweep struct {
	opt   options
	specs []experiment.Spec

	next  int // ops run so far; op k is cell k%sweepCellsPerPass of pass k/sweepCellsPerPass
	first []ecommerce.Result
	have  []bool
	h     hash.Hash64

	// Traced runs only.
	reg                      *metrics.Registry
	tally                    observeTally
	txns, cells, gcs, rejuvs int64
}

func newSweep(opt options) (workload, error) {
	fig, err := experiment.FigureByID("fig16")
	if err != nil {
		return nil, err
	}
	s := &sweep{
		opt:   opt,
		specs: fig.Specs,
		first: make([]ecommerce.Result, sweepCellsPerPass),
		have:  make([]bool, sweepCellsPerPass),
		h:     fnv.New64a(),
	}
	if len(s.specs)*len(sweepLoads)*sweepReps != sweepCellsPerPass {
		return nil, fmt.Errorf("fig16 has %d specs, the grid expects 3", len(s.specs))
	}
	if opt.tracer != nil {
		s.reg = metrics.NewRegistry()
	}
	return s, nil
}

// cellAt returns the spec, load and replication indices of op k.
func cellAt(k int) (spec, load, rep int) {
	pass := (k / sweepCellsPerPass) % sweepMaxPasses
	c := k % sweepCellsPerPass
	spec = c / (len(sweepLoads) * sweepReps)
	load = c / sweepReps % len(sweepLoads)
	rep = pass*sweepReps + c%sweepReps
	return spec, load, rep
}

// runCell runs one cell as experiment.runReplication does.
func (s *sweep) runCell(spec, load, rep int, traced bool) (ecommerce.Result, error) {
	tr := s.opt.tracer
	if !traced {
		tr = nil
	}
	sp := tr.begin("experiment.cell", -1)
	defer tr.end(sp)
	det, err := s.specs[spec].NewDetector()
	if err != nil {
		return ecommerce.Result{}, err
	}
	if traced {
		det = decorate(det, &s.tally)
	}
	cfg := ecommerce.Config{
		ArrivalRate:  sweepLoads[load] * sweepServiceRate,
		Transactions: sweepTxns,
		Seed:         s.opt.seed,
		Stream:       uint64(load)*1_000 + uint64(rep) + 1,
	}
	nsp := tr.begin("ecommerce.new", sp)
	m, err := ecommerce.New(cfg, det)
	tr.end(nsp)
	if err != nil {
		return ecommerce.Result{}, err
	}
	if traced && s.reg != nil {
		m.Instrument(s.reg)
	}
	rsp := tr.begin("ecommerce.run", sp)
	res, err := m.Run()
	tr.end(rsp)
	return res, err
}

func (s *sweep) prepare() {}

func (s *sweep) op() (int64, error) {
	k := s.next
	s.next++
	if s.opt.faults.skipCell && k == sweepSkippedCell {
		return 0, nil // planted fault: the cell silently does nothing
	}
	spec, load, rep := cellAt(k)
	res, err := s.runCell(spec, load, rep, s.opt.tracer != nil)
	if err != nil {
		return 0, err
	}
	if err := cellInvariants(res); err != nil {
		return 0, fmt.Errorf("cell %d: %w", k, err)
	}
	if k < sweepCellsPerPass {
		s.first[k], s.have[k] = res, true
	}
	writeResult(s.h, k, res)
	if s.reg != nil {
		s.txns += res.Completed + res.Lost
		s.cells++
		s.gcs += res.GCs
		s.rejuvs += res.Rejuvenations
	}
	return res.Completed + res.Lost, nil
}

// cellInvariants checks one replication's bookkeeping.
func cellInvariants(res ecommerce.Result) error {
	// The run stops at the first event that brings completed + lost to
	// the budget; only a rejuvenation's kills can overshoot it.
	left := res.Completed + res.Lost
	switch {
	case left < sweepTxns || left-sweepTxns > res.Lost:
		return fmt.Errorf("%d completed + %d lost for a budget of %d transactions", res.Completed, res.Lost, sweepTxns)
	case res.RT.N() != res.Completed:
		return fmt.Errorf("response-time count %d, completed %d", res.RT.N(), res.Completed)
	case res.Arrived < sweepTxns:
		return fmt.Errorf("%d arrivals for %d transactions", res.Arrived, sweepTxns)
	case math.IsNaN(res.RT.Mean()) || math.IsInf(res.RT.Mean(), 0):
		return fmt.Errorf("non-finite mean response time")
	}
	return nil
}

// writeResult folds one cell's outputs into h.
func writeResult(h hash.Hash64, k int, r ecommerce.Result) {
	var b []byte
	for _, v := range []uint64{uint64(k), uint64(r.Arrived), uint64(r.Completed), uint64(r.Lost),
		uint64(r.Rejuvenations), uint64(r.GCs), math.Float64bits(r.RT.Mean()),
		math.Float64bits(r.RT.Var()), math.Float64bits(r.SimTime)} {
		b = strconv.AppendUint(b, v, 16)
		b = append(b, ',')
	}
	_, _ = h.Write(b) // hash.Hash writes never fail
}

func (s *sweep) digest() uint64 { return s.h.Sum64() }

func (s *sweep) close() {}

// check verifies the first pass: every cell ran, the pooled means match
// the pinned Fig. 16 CSV at the default seed, and rerunning one cell
// reproduces it exactly.
func (s *sweep) check() (int, error) {
	missing := 0
	for _, ok := range s.have {
		if !ok {
			missing++
		}
	}
	if missing > 0 {
		return missing, fmt.Errorf("first pass is missing %d of %d cells", missing, sweepCellsPerPass)
	}
	if s.opt.seed == defaultSeed {
		if bad, err := s.checkGolden(); err != nil {
			return bad, err
		}
	}
	// Determinism: rerun one cell of the first pass, untraced.
	k := int(s.opt.seed % sweepCellsPerPass)
	spec, load, rep := cellAt(k)
	res, err := s.runCell(spec, load, rep, false)
	if err != nil {
		return 1, fmt.Errorf("rerun of cell %d: %w", k, err)
	}
	a, b := fnv.New64a(), fnv.New64a()
	writeResult(a, k, s.first[k])
	writeResult(b, k, res)
	if a.Sum64() != b.Sum64() {
		return 1, fmt.Errorf("rerun of cell %d differs from its first run", k)
	}
	return 0, nil
}

// checkGolden folds the first pass per (spec, load) with Welford.Merge
// in cell order and compares the means with the pinned CSV bit for bit.
func (s *sweep) checkGolden() (int, error) {
	rows, err := readGolden()
	if err != nil {
		return 1, err
	}
	if len(rows) != len(sweepLoads)+1 || len(rows[0]) != len(s.specs)+1 {
		return 1, fmt.Errorf("%s: unexpected shape %dx%d", goldenCSV, len(rows), len(rows[0]))
	}
	bad := 0
	var first error
	for si, spec := range s.specs {
		if rows[0][si+1] != spec.Label() {
			return 1, fmt.Errorf("%s: column %q, want %q", goldenCSV, rows[0][si+1], spec.Label())
		}
		for li, load := range sweepLoads {
			var rt stats.Welford
			for r := 0; r < sweepReps; r++ {
				rt.Merge(s.first[(si*len(sweepLoads)+li)*sweepReps+r].RT)
			}
			got := strconv.FormatFloat(rt.Mean(), 'g', 8, 64)
			want := rows[li+1][si+1]
			if rows[li+1][0] != strconv.FormatFloat(load, 'g', -1, 64) || got != want {
				bad += sweepReps
				if first == nil {
					first = fmt.Errorf("%s at load %g: mean response time %s, golden %s", spec.Label(), load, got, want)
				}
			}
		}
	}
	return bad, first
}

// readGolden reads the pinned CSV from the repository root, which is
// the working directory of a run or the parent of this package's.
func readGolden() ([][]string, error) {
	var lastErr error
	for _, p := range []string{goldenCSV, "../" + goldenCSV} {
		f, err := os.Open(p)
		if err != nil {
			lastErr = err
			continue
		}
		defer f.Close()
		return csv.NewReader(f).ReadAll()
	}
	return nil, lastErr
}

// layers reports the sweep's per-layer metrics from the traced run.
func (s *sweep) layers(m map[string]metric) {
	if s.reg == nil || s.cells == 0 || s.txns == 0 {
		return
	}
	st := s.opt.tracer.stats()
	fired := s.reg.Counter("des_events_fired_total", "").Value()
	cancelled := s.reg.Counter("des_events_cancelled_total", "").Value()
	txns, cells := float64(s.txns), float64(s.cells)
	m["des.events_per_txn"] = metric{float64(fired) / txns, "events/txn"}
	m["des.cancels_per_txn"] = metric{float64(cancelled) / txns, "events/txn"}
	m["ecommerce.gc_stalls_per_cell"] = metric{float64(s.gcs) / cells, "count/cell"}
	m["ecommerce.rejuvenations_per_cell"] = metric{float64(s.rejuvs) / cells, "count/cell"}
	perTxn := float64(s.tally.calls) / txns
	m["core.observe_ns"] = metric{s.tally.meanNs(), "ns"}
	m["core.observes_per_item"] = metric{perTxn, "calls/item"}
	if run := st["ecommerce.run"]; run != nil && run.count > 0 {
		// Self time: the Run span less the detector calls inside it,
		// estimated from the timing decorator.
		own := run.own/float64(run.count) - s.tally.meanNs()*perTxn*sweepTxns
		m["ecommerce.self_us_per_cell"] = metric{own / 1e3, "us"}
	}
}
