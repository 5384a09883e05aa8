package main

import (
	"encoding/json"
	"io"
	"os"
	"sort"
	"testing"

	"rejuv/internal/core"
)

// TestChecksPassAtBothSeeds runs every workload briefly, unfaulted, at
// the default and the held-out seed.
func TestChecksPassAtBothSeeds(t *testing.T) {
	for _, seed := range []uint64{defaultSeed, heldOutSeed} {
		for _, w := range workloads {
			rec, err := runOne(w.name, options{seed: seed}, 0.05, false, io.Discard)
			if err != nil {
				t.Fatalf("%s seed %d: %v", w.name, seed, err)
			}
			if !rec.Result.Correct || rec.Result.Failed != 0 {
				t.Errorf("%s seed %d: correct=%v failed=%d of %d", w.name, seed,
					rec.Result.Correct, rec.Result.Failed, rec.Result.Attempted)
			}
		}
	}
}

// TestPlantedFaultsFailTheirChecks plants one defect per workload and
// asserts that the workload's check catches it.
func TestPlantedFaultsFailTheirChecks(t *testing.T) {
	cases := []struct {
		workload string
		fault    faults
	}{
		{"paper-sweep", faults{skipCell: true}},
		{"fleet-aging", faults{dropObs: true}},
		{"record-replay", faults{flipDecision: true}},
	}
	for _, c := range cases {
		rec, err := runOne(c.workload, options{seed: defaultSeed, faults: c.fault}, 0.05, false, io.Discard)
		if err != nil {
			t.Fatalf("%s: %v", c.workload, err)
		}
		frac := rec.Extra["failed_frac"].Value
		if rec.Result.Correct || rec.Result.Failed == 0 || !(frac > 0) {
			t.Errorf("%s with %+v: correct=%v failed=%d failed_frac=%v, want the check to fail",
				c.workload, c.fault, rec.Result.Correct, rec.Result.Failed, frac)
		}
	}
}

// TestTracedRunMatchesUntraced runs the same ops with and without
// tracing (spans, timing decorator, model instrumentation) and asserts
// identical output digests: tracing observes the layers without
// changing the path they take.
func TestTracedRunMatchesUntraced(t *testing.T) {
	ops := map[string]int{"paper-sweep": sweepCellsPerPass, "fleet-aging": 80, "record-replay": 4}
	for _, w := range workloads {
		var digests [2]uint64
		for i, tr := range []*tracer{nil, newTracer()} {
			wl, err := w.new(options{seed: heldOutSeed, tracer: tr})
			if err != nil {
				t.Fatalf("%s: %v", w.name, err)
			}
			for k := 0; k < ops[w.name]; k++ {
				wl.prepare()
				if _, err := wl.op(); err != nil {
					t.Fatalf("%s op %d (traced=%v): %v", w.name, k, tr != nil, err)
				}
			}
			if tr != nil && len(tr.spans) == 0 {
				t.Errorf("%s: traced run recorded no spans", w.name)
			}
			digests[i] = wl.digest()
			wl.close()
		}
		if digests[0] != digests[1] {
			t.Errorf("%s: traced digest %x, untraced %x", w.name, digests[1], digests[0])
		}
	}
}

// TestDecoratorKeepsInterfaces checks that the timing decorator exposes
// exactly the optional interfaces of the detector it wraps.
func TestDecoratorKeepsInterfaces(t *testing.T) {
	base := core.Baseline{Mean: 5, StdDev: 1}
	sraa, err := core.NewSRAA(core.SRAAConfig{SampleSize: 2, Buckets: 5, Depth: 3, Baseline: base})
	if err != nil {
		t.Fatal(err)
	}
	reb, err := core.NewRebase(core.ShiftConfig{}, base, func(b core.Baseline) (core.Detector, error) {
		return core.NewSRAA(core.SRAAConfig{SampleSize: 2, Buckets: 5, Depth: 3, Baseline: b})
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, det := range []core.Detector{sraa, reb} {
		d := decorate(det, &observeTally{})
		_, wantI := det.(core.Instrumented)
		_, wantR := det.(core.Rebaseliner)
		_, gotI := d.(core.Instrumented)
		_, gotR := d.(core.Rebaseliner)
		if gotI != wantI || gotR != wantR {
			t.Errorf("%T: decorated Instrumented=%v Rebaseliner=%v, want %v %v", det, gotI, gotR, wantI, wantR)
		}
	}
}

// TestTailLatency pins the tail definition: the sample with exactly
// tailSamples samples beyond it.
func TestTailLatency(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i)
	}
	v, q := tailLatency(xs)
	if v != 90 || q != 0.9 {
		t.Errorf("tail = %v at q=%v, want 90 at 0.9", v, q)
	}
}

// TestCatalogueMatchesBenchmarkJSON keeps BENCHMARK.json and the
// metrics the benchmark prints in step.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var e2e []string
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	if got, want := sortedCopy(e2e), sortedCopy(endToEnd); !equal(got, want) {
		t.Errorf("BENCHMARK.json end_to_end %v, the benchmark prints %v", got, want)
	}
	units := map[string]string{}
	for _, l := range perLayer {
		units[l.name] = l.unit
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Errorf("BENCHMARK.json lists %d per-layer metrics, the benchmark prints %d", len(spec.PerLayer), len(perLayer))
	}
	for _, m := range spec.PerLayer {
		if u, ok := units[m.Name]; !ok || u != m.Unit {
			t.Errorf("per-layer %s (%s): the benchmark has unit %q (present=%v)", m.Name, m.Unit, u, ok)
		}
	}
}

func sortedCopy(s []string) []string {
	c := append([]string(nil), s...)
	sort.Strings(c)
	return c
}

func equal(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
