package faults

import (
	"math"
	"reflect"
	"testing"
)

// run feeds xs through a fresh injector and returns the delivered
// stream plus the injector for count inspection.
func run(t *testing.T, spec string, seed, stream uint64, xs []float64) ([]float64, *Injector) {
	t.Helper()
	s, err := ParseSpec(spec)
	if err != nil {
		t.Fatalf("ParseSpec(%q): %v", spec, err)
	}
	j := NewInjector(s, seed, stream)
	var out []float64
	for _, x := range xs {
		out = append(out, j.Apply(x)...)
	}
	out = append(out, j.Flush()...)
	return out, j
}

// ramp returns n observations 0, 1, 2, ...
func ramp(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i)
	}
	return xs
}

// TestInjectorPassThrough pins that an empty spec is an identity map.
func TestInjectorPassThrough(t *testing.T) {
	in := ramp(100)
	out, j := run(t, "", 1, 1, in)
	if !reflect.DeepEqual(out, in) {
		t.Error("empty injector altered the stream")
	}
	if j.Active() {
		t.Error("empty injector reports Active")
	}
}

// TestInjectorDeterminism pins the seed contract: same seed and stream,
// same injections; different stream, different injections.
func TestInjectorDeterminism(t *testing.T) {
	const spec = "nan:p=0.05;drop:p=0.05;dup:p=0.05;reorder:p=0.05"
	in := ramp(2000)
	a, _ := run(t, spec, 42, 7, in)
	b, _ := run(t, spec, 42, 7, in)
	if len(a) != len(b) {
		t.Fatalf("same seed produced %d vs %d observations", len(a), len(b))
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			t.Fatalf("same seed diverged at observation %d: %v vs %v", i, a[i], b[i])
		}
	}
	c, _ := run(t, spec, 42, 8, in)
	if reflect.DeepEqual(a, c) {
		t.Error("different streams produced identical injections")
	}
}

// TestInjectorNaNInfNeg pins the value-corruption classes at p=1.
func TestInjectorNaNInfNeg(t *testing.T) {
	out, _ := run(t, "nan:p=1", 1, 1, []float64{5})
	if len(out) != 1 || !math.IsNaN(out[0]) {
		t.Errorf("nan:p=1 produced %v", out)
	}
	out, _ = run(t, "inf:p=1", 1, 1, []float64{5})
	if len(out) != 1 || !math.IsInf(out[0], 1) {
		t.Errorf("inf:p=1 produced %v", out)
	}
	out, _ = run(t, "inf:p=1,sign=-", 1, 1, []float64{5})
	if len(out) != 1 || !math.IsInf(out[0], -1) {
		t.Errorf("inf:p=1,sign=- produced %v", out)
	}
	out, _ = run(t, "neg:p=1", 1, 1, []float64{5})
	if len(out) != 1 || out[0] != -5 {
		t.Errorf("neg:p=1 produced %v", out)
	}
}

// TestInjectorFreeze pins frozen-run semantics: at onset the last clean
// value substitutes for the next len observations, then the stream
// resumes live.
func TestInjectorFreeze(t *testing.T) {
	s, err := ParseSpec("freeze:p=1,len=3")
	if err != nil {
		t.Fatal(err)
	}
	j := NewInjector(s, 1, 1)
	var out []float64
	// First observation: no last value yet, freeze fires but passes the
	// input through; run continues with its value frozen.
	for _, x := range []float64{10, 20, 30, 40, 50} {
		out = append(out, j.Apply(x)...)
	}
	// obs0 fires freeze (no prior value -> emits 10, run of 3 starts and
	// consumes obs0..obs2 as frozen); obs1, obs2 emit last clean = 10;
	// obs3 fires freeze again at p=1 with last clean still 10.
	want := []float64{10, 10, 10, 10, 10}
	if !reflect.DeepEqual(out, want) {
		t.Errorf("freeze stream = %v, want %v", out, want)
	}
}

// TestInjectorDrop pins that dropped observations vanish and are
// counted.
func TestInjectorDrop(t *testing.T) {
	out, j := run(t, "drop:p=1", 1, 1, ramp(10))
	if len(out) != 0 {
		t.Errorf("drop:p=1 leaked %d observations", len(out))
	}
	counts := j.Counts()
	if len(counts) != 1 || counts[0].Class != ClassDrop || counts[0].N != 10 {
		t.Errorf("drop counts = %+v", counts)
	}
}

// TestInjectorDup pins duplication: every observation appears twice, in
// order.
func TestInjectorDup(t *testing.T) {
	out, _ := run(t, "dup:p=1", 1, 1, []float64{1, 2})
	want := []float64{1, 1, 2, 2}
	if !reflect.DeepEqual(out, want) {
		t.Errorf("dup stream = %v, want %v", out, want)
	}
}

// TestInjectorReorder pins the hold-back-one-slot swap and that Flush
// drains a held final observation.
func TestInjectorReorder(t *testing.T) {
	out, _ := run(t, "reorder:p=1", 1, 1, []float64{1, 2, 3})
	// Every observation is held one slot: 1 held, 2 held after releasing
	// 1, 3 held after releasing 2, Flush releases 3.
	want := []float64{1, 2, 3}
	if !reflect.DeepEqual(out, want) {
		t.Errorf("reorder:p=1 stream = %v, want %v", out, want)
	}
	// At p=0.5 actual swaps occur: stream is a permutation, not the id.
	in := ramp(200)
	out, _ = run(t, "reorder:p=0.5", 3, 1, in)
	if len(out) != len(in) {
		t.Fatalf("reorder changed length: %d -> %d", len(in), len(out))
	}
	if reflect.DeepEqual(out, in) {
		t.Error("reorder:p=0.5 never swapped in 200 observations")
	}
	sum := 0.0
	for _, v := range out {
		sum += v
	}
	if want := float64(len(in)*(len(in)-1)) / 2; sum != want {
		t.Errorf("reorder lost mass: sum %v, want %v", sum, want)
	}
}

// TestInjectorStall pins the index-window silence.
func TestInjectorStall(t *testing.T) {
	out, j := run(t, "stall:at=3,len=4", 1, 1, ramp(10))
	want := []float64{0, 1, 2, 7, 8, 9}
	if !reflect.DeepEqual(out, want) {
		t.Errorf("stall stream = %v, want %v", out, want)
	}
	if c := j.Counts(); c[0].N != 4 {
		t.Errorf("stall count = %d, want 4", c[0].N)
	}
}

// TestInjectorOnFault pins the hook: one call per injected fault with
// the class attached.
func TestInjectorOnFault(t *testing.T) {
	s, err := ParseSpec("nan:p=1")
	if err != nil {
		t.Fatal(err)
	}
	j := NewInjector(s, 1, 1)
	var classes []Class
	j.OnFault = func(class Class, value float64) {
		classes = append(classes, class)
		if !math.IsNaN(value) {
			t.Errorf("OnFault value = %v, want NaN", value)
		}
	}
	j.Apply(1)
	j.Apply(2)
	if len(classes) != 2 || classes[0] != ClassNaN {
		t.Errorf("OnFault calls = %v", classes)
	}
}
