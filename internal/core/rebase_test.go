package core

import (
	"reflect"
	"testing"
)

// regimeTrace returns n observations that hold each regime mean for
// period observations, alternating between lo and hi, with a
// deterministic uniform jitter of the given spread around the mean.
func regimeTrace(n, period int, lo, hi, spread float64) []float64 {
	out := make([]float64, n)
	h := uint64(0x9e3779b97f4a7c15)
	for i := range out {
		h ^= h << 13
		h ^= h >> 7
		h ^= h << 17
		u := float64(h>>11)/(1<<53) - 0.5
		mean := lo
		if (i/period)%2 == 1 {
			mean = hi
		}
		out[i] = mean + 2*spread*u
	}
	return out
}

// rebaseFamilies builds one detector of every family Rebase can wrap,
// except Adaptive, at the given baseline.
func rebaseFamilies(t *testing.T, base Baseline) map[string]rebaser {
	t.Helper()
	must := func(d Detector, err error) rebaser {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return d.(rebaser)
	}
	saraa := SARAAConfig{InitialSampleSize: 6, Buckets: 5, Depth: 3, Baseline: base}
	plan := saraa.Plan()
	return map[string]rebaser{
		"SRAA":     must(NewSRAA(SRAAConfig{SampleSize: 4, Buckets: 5, Depth: 3, Baseline: base})),
		"SARAA":    must(NewSARAA(saraa)),
		"CLTA":     must(NewCLTA(CLTAConfig{SampleSize: 10, Quantile: 1.96, Baseline: base})),
		"Plan":     must(plan.NewDetector(base), nil),
		"Shewhart": must(NewShewhart(3, base)),
		"EWMA":     must(NewEWMA(0.2, 3, base)),
		"CUSUM":    must(NewCUSUM(0.5, 5, base)),
	}
}

// TestRebaseMatchesFreshDetector pins the in-place restart rule: a
// detector that has seen observations at baseline A and is rebased to B
// is indistinguishable from one built fresh at B.
func TestRebaseMatchesFreshDetector(t *testing.T) {
	a := Baseline{Mean: 5, StdDev: 5}
	b := Baseline{Mean: 12, StdDev: 2.5}
	trace := regimeTrace(64, 64, 9, 9, 6)
	fresh := rebaseFamilies(t, b)
	for name, det := range rebaseFamilies(t, a) {
		for _, x := range trace {
			det.Observe(x)
		}
		det.rebase(b)
		if !reflect.DeepEqual(det, fresh[name]) {
			t.Errorf("%s: rebased detector %+v, fresh at B %+v", name, det, fresh[name])
		}
	}

	// Adaptive holds a func value, which DeepEqual never matches:
	// compare behaviour instead.
	build := func(base Baseline) (Detector, error) {
		return NewSRAA(SRAAConfig{SampleSize: 2, Buckets: 5, Depth: 3, Baseline: base})
	}
	newAdaptive := func() *Adaptive {
		ad, err := NewAdaptive(16, build)
		if err != nil {
			t.Fatal(err)
		}
		return ad
	}
	rebased, ref := newAdaptive(), newAdaptive()
	for _, x := range trace {
		rebased.Observe(x)
	}
	if _, ok := rebased.Learned(); !ok {
		t.Fatal("adaptive never learned its baseline; the test is vacuous")
	}
	rebased.rebase(b)
	if _, ok := rebased.Learned(); ok {
		t.Fatal("rebased adaptive detector still holds its learned baseline")
	}
	triggers := 0
	for i, x := range regimeTrace(400, 100, 5, 30, 4) {
		got, want := rebased.Observe(x), ref.Observe(x)
		if got != want {
			t.Fatalf("adaptive observation %d: rebased %+v, fresh %+v", i, got, want)
		}
		if got.Triggered {
			triggers++
		}
	}
	if triggers == 0 {
		t.Fatal("follow-on trace never triggered; the comparison is vacuous")
	}
}

// TestRebaseRebaselineDoesNotAllocate pins the committed-rebaseline path
// of Rebase at zero allocations for every wrapped family: workload
// regimes flip every 200 observations, each flip commits a rebaseline,
// and none of them may build a new detector. The regimes are constant:
// a jittered regime can latch the shift layer as aging (see ShiftState)
// and stop the flips from rebaselining, which this pin does not test.
func TestRebaseRebaselineDoesNotAllocate(t *testing.T) {
	base := Baseline{Mean: 5, StdDev: 1}
	trace := regimeTrace(200*24, 200, 5, 25, 0)
	for name, det := range rebaseFamilies(t, base) {
		if name == "Plan" {
			continue // the same blockDetector as SARAA
		}
		r, err := NewRebase(ShiftConfig{}, base, func(Baseline) (Detector, error) { return det, nil })
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(2, func() {
			for _, x := range trace {
				r.Observe(x)
			}
		})
		if n := r.Rebaselines(); n < 3*20 {
			t.Fatalf("%s: %d rebaselines over three passes, want at least 60", name, n)
		}
		if allocs != 0 {
			t.Errorf("%s: %.0f allocations per %d rebaselines, want 0", name, allocs, r.Rebaselines()/3)
		}
	}
}
