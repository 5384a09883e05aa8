package core

import (
	"math"
	"testing"
)

// shiftTestBase is the paper's healthy baseline.
var shiftTestBase = Baseline{Mean: 5, StdDev: 5}

func TestMomentsTracksMeanAndSpread(t *testing.T) {
	var m Moments
	// Alternate 4 and 6 around a mean of 5: EW mean converges to 5 and
	// the EW variance to the population variance 1.
	for i := 0; i < 4000; i++ {
		x := 4.0
		if i%2 == 1 {
			x = 6.0
		}
		m.Observe(0.05, x)
	}
	if math.Abs(m.Mean()-5) > 0.1 {
		t.Fatalf("EW mean %v, want ~5", m.Mean())
	}
	if math.Abs(m.StdDev()-1) > 0.1 {
		t.Fatalf("EW stddev %v, want ~1", m.StdDev())
	}
	if m.Count() != 4000 {
		t.Fatalf("count %d, want 4000", m.Count())
	}
	m.Reset()
	if m.Count() != 0 || m.Mean() != 0 || m.Variance() != 0 {
		t.Fatalf("reset left state %+v", m)
	}
}

func TestMomentsFirstObservationSeedsExactly(t *testing.T) {
	var m Moments
	m.Observe(0.05, 42.5)
	if m.Mean() != 42.5 || m.Variance() != 0 {
		t.Fatalf("after first observation mean=%v var=%v, want 42.5, 0", m.Mean(), m.Variance())
	}
}

// TestMomentsObserveDoesNotAllocate pins the EWMA observe path at zero
// allocations: it runs per observation on every shift-enabled stream.
func TestMomentsObserveDoesNotAllocate(t *testing.T) {
	var m Moments
	x := 1.0
	if n := testing.AllocsPerRun(1000, func() {
		m.Observe(0.05, x)
		x += 0.001
	}); n != 0 {
		t.Fatalf("Moments.Observe allocates %.1f times per call, want 0", n)
	}
}

// TestShiftStateObserveDoesNotAllocate pins the whole shift-layer step,
// the code the fleet drain loop runs per observation.
func TestShiftStateObserveDoesNotAllocate(t *testing.T) {
	cfg := ShiftConfig{}.WithDefaults()
	st := NewShiftState(shiftTestBase)
	x := 5.0
	if n := testing.AllocsPerRun(1000, func() {
		st.Step(cfg, x)
		x += 0.001
	}); n != 0 {
		t.Fatalf("ShiftState.Step allocates %.1f times per call, want 0", n)
	}
}

func TestShiftConfigDefaultsAndValidate(t *testing.T) {
	def := ShiftConfig{}.WithDefaults()
	if def.Alpha != 0.05 || def.Slack != 0.5 || def.Threshold != 8 || def.MaxShiftRun != 20 || def.Relearn != 32 {
		t.Fatalf("unexpected defaults %+v", def)
	}
	if err := def.Validate(); err != nil {
		t.Fatalf("defaults must validate: %v", err)
	}
	bad := []ShiftConfig{
		{Detector: ShiftDetector(7), Alpha: 0.05, Slack: 0.5, Threshold: 8, MaxShiftRun: 20, Relearn: 32},
		{Alpha: -1, Slack: 0.5, Threshold: 8, MaxShiftRun: 20, Relearn: 32},
		{Alpha: 1.5, Slack: 0.5, Threshold: 8, MaxShiftRun: 20, Relearn: 32},
		{Alpha: 0.05, Slack: -0.5, Threshold: 8, MaxShiftRun: 20, Relearn: 32},
		{Alpha: 0.05, Slack: 0.5, Threshold: math.Inf(1), MaxShiftRun: 20, Relearn: 32},
		{Alpha: 0.05, Slack: 0.5, Threshold: 8, MaxShiftRun: -1, Relearn: 32},
		{Alpha: 0.05, Slack: 0.5, Threshold: 8, MaxShiftRun: 20, Relearn: 1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %d (%+v) must not validate", i, c)
		}
	}
}

// TestShiftStateClassifiesStepAsShift: an abrupt +4σ step must be
// classified as a workload shift — a short relearn, then one committed
// rebaseline near the new level with the old spread retained (the step
// is noiseless, so the relearned variance is degenerate).
func TestShiftStateClassifiesStepAsShift(t *testing.T) {
	for _, det := range []ShiftDetector{ShiftCUSUM, ShiftPageHinkley} {
		cfg := ShiftConfig{Detector: det}.WithDefaults()
		st := NewShiftState(shiftTestBase)
		for i := 0; i < 50; i++ {
			if out := st.Step(cfg, 5); out != ShiftNone {
				t.Fatalf("%v: steady observation %d classified %v", det, i, out)
			}
		}
		sawRelearn, sawRebaseline := false, false
		for i := 0; i < 100 && !sawRebaseline; i++ {
			switch st.Step(cfg, 25) {
			case ShiftRelearning:
				sawRelearn = true
			case ShiftRebaselined:
				sawRebaseline = true
			case ShiftAging:
				t.Fatalf("%v: abrupt step classified as aging", det)
			}
		}
		if !sawRelearn || !sawRebaseline {
			t.Fatalf("%v: step not rebaselined (relearn=%v rebaseline=%v)", det, sawRelearn, sawRebaseline)
		}
		if st.Rebaselines != 1 {
			t.Fatalf("%v: %d rebaselines, want 1", det, st.Rebaselines)
		}
		if st.Base.Mean != 25 {
			t.Fatalf("%v: committed mean %v, want 25", det, st.Base.Mean)
		}
		if st.Base.StdDev != shiftTestBase.StdDev {
			t.Fatalf("%v: degenerate relearn committed stddev %v, want old %v kept", det, st.Base.StdDev, shiftTestBase.StdDev)
		}
		// At the new level the stream is normal again.
		if out := st.Step(cfg, 25); out != ShiftNone {
			t.Fatalf("%v: post-rebaseline observation classified %v", det, out)
		}
	}
}

// TestShiftStateClassifiesRampAsAging: a slow upward drift must be left
// to the wrapped detector — the change-point fires with a long run and
// is classified as aging; no rebaseline is ever committed.
func TestShiftStateClassifiesRampAsAging(t *testing.T) {
	for _, det := range []ShiftDetector{ShiftCUSUM, ShiftPageHinkley} {
		cfg := ShiftConfig{Detector: det}.WithDefaults()
		st := NewShiftState(shiftTestBase)
		sawAging := false
		for i := 0; i < 2000; i++ {
			x := 5 + 0.02*float64(i) // 0.004σ per observation
			switch st.Step(cfg, x) {
			case ShiftAging:
				sawAging = true
			case ShiftRelearning, ShiftRebaselined:
				t.Fatalf("%v: slow ramp rebaselined at observation %d", det, i)
			}
		}
		if !sawAging {
			t.Fatalf("%v: slow ramp never classified as aging", det)
		}
		if st.Rebaselines != 0 {
			t.Fatalf("%v: %d rebaselines on a pure ramp, want 0", det, st.Rebaselines)
		}
	}
}

// TestShiftStateDownshiftRebaselines: a downward move is always a
// workload change — aging never improves response times.
func TestShiftStateDownshiftRebaselines(t *testing.T) {
	cfg := ShiftConfig{}.WithDefaults()
	st := NewShiftState(shiftTestBase)
	for i := 0; i < 50; i++ {
		st.Step(cfg, 5)
	}
	for i := 0; i < 100 && st.Rebaselines == 0; i++ {
		if out := st.Step(cfg, 1); out == ShiftAging {
			t.Fatal("downward step classified as aging")
		}
	}
	if st.Rebaselines != 1 {
		t.Fatalf("%d rebaselines after a downshift, want 1", st.Rebaselines)
	}
	if st.Base.Mean != 1 {
		t.Fatalf("committed mean %v, want 1", st.Base.Mean)
	}
}

// TestShiftStateAgingLatchReleasesOnDownshift: while an aging
// classification is latched, an upward crossing only restarts the
// change-point statistic, and a downward crossing releases the latch
// and rebaselines, so the layer keeps tracking a workload whose
// wrapped detector never fires.
func TestShiftStateAgingLatchReleasesOnDownshift(t *testing.T) {
	for _, det := range []ShiftDetector{ShiftCUSUM, ShiftPageHinkley} {
		cfg := ShiftConfig{Detector: det}.WithDefaults()
		st := NewShiftState(shiftTestBase)
		for i := 0; !st.Aging; i++ {
			if i == 2000 {
				t.Fatalf("%v: slow ramp never latched aging", det)
			}
			st.Step(cfg, 5+0.02*float64(i))
		}
		for i := 0; i < 200; i++ {
			if out := st.Step(cfg, 45); out != ShiftNone || !st.Aging {
				t.Fatalf("%v: latched observation %d classified %v (latched %v)", det, i, out, st.Aging)
			}
		}
		for i := 0; i < 200 && st.Rebaselines == 0; i++ {
			if out := st.Step(cfg, 1); out == ShiftAging {
				t.Fatalf("%v: downward step classified as aging", det)
			}
		}
		if st.Aging || st.Rebaselines != 1 || st.Base.Mean != 1 {
			t.Fatalf("%v: after a downshift latched=%v, %d rebaselines at mean %v; want released, 1 at 1",
				det, st.Aging, st.Rebaselines, st.Base.Mean)
		}
	}
}

// newRebaseSRAA builds the canonical wrapped detector of these tests:
// SRAA (n=4, K=5, D=3) under the default shift layer.
func newRebaseSRAA(t *testing.T, cfg ShiftConfig) *Rebase {
	t.Helper()
	r, err := NewRebase(cfg, shiftTestBase, func(b Baseline) (Detector, error) {
		return NewSRAA(SRAAConfig{SampleSize: 4, Buckets: 5, Depth: 3, Baseline: b})
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestRebaseSuppressesFalseTriggerOnPureShift: a sustained step past
// the top bucket target fires the bare family but must not fire the
// wrapped one — the shift layer rebaselines instead.
func TestRebaseSuppressesFalseTriggerOnPureShift(t *testing.T) {
	bare, err := NewSRAA(SRAAConfig{SampleSize: 4, Buckets: 5, Depth: 3, Baseline: shiftTestBase})
	if err != nil {
		t.Fatal(err)
	}
	wrapped := newRebaseSRAA(t, ShiftConfig{})
	bareTrigs, wrappedTrigs := 0, 0
	feed := func(d Detector, x float64) int {
		if d.Observe(x).Triggered {
			return 1
		}
		return 0
	}
	for i := 0; i < 200; i++ {
		bareTrigs += feed(bare, 5)
		wrappedTrigs += feed(wrapped, 5)
	}
	for i := 0; i < 600; i++ {
		bareTrigs += feed(bare, 26)
		wrappedTrigs += feed(wrapped, 26)
	}
	if bareTrigs == 0 {
		t.Fatal("bare SRAA never triggered on the shift; the test is vacuous")
	}
	if wrappedTrigs != 0 {
		t.Fatalf("wrapped SRAA fired %d false triggers across a pure workload shift", wrappedTrigs)
	}
	if wrapped.Rebaselines() != 1 {
		t.Fatalf("%d rebaselines, want 1", wrapped.Rebaselines())
	}
	if got := wrapped.CurrentBaseline().Mean; got != 26 {
		t.Fatalf("committed mean %v, want 26", got)
	}
}

// TestRebaseIsTransparentUnderPureAging: on a pure aging ramp the shift
// layer must be a bystander — the wrapped decision stream is identical,
// observation by observation, to the bare family's.
func TestRebaseIsTransparentUnderPureAging(t *testing.T) {
	bare, err := NewSRAA(SRAAConfig{SampleSize: 4, Buckets: 5, Depth: 3, Baseline: shiftTestBase})
	if err != nil {
		t.Fatal(err)
	}
	wrapped := newRebaseSRAA(t, ShiftConfig{})
	for i := 0; i < 3000; i++ {
		x := 5 + 0.02*float64(i)
		db, dw := bare.Observe(x), wrapped.Observe(x)
		if db != dw {
			t.Fatalf("observation %d: bare %+v, wrapped %+v", i, db, dw)
		}
		if db.Triggered {
			return // both fired together: the aging path is untouched
		}
	}
	t.Fatal("aging ramp never triggered; the test is vacuous")
}

// TestRebaseResetKeepsLearnedBaseline: Reset models an external
// rejuvenation — capacity is restored but the workload has not moved,
// so the learned baseline must survive.
func TestRebaseResetKeepsLearnedBaseline(t *testing.T) {
	wrapped := newRebaseSRAA(t, ShiftConfig{})
	for i := 0; i < 50; i++ {
		wrapped.Observe(5)
	}
	for i := 0; i < 100; i++ {
		wrapped.Observe(25)
	}
	if wrapped.Rebaselines() != 1 {
		t.Fatalf("%d rebaselines, want 1", wrapped.Rebaselines())
	}
	wrapped.Reset()
	if got := wrapped.CurrentBaseline().Mean; got != 25 {
		t.Fatalf("Reset discarded the learned baseline (mean %v, want 25)", got)
	}
	if wrapped.Relearning() {
		t.Fatal("Reset left a relearn window in progress")
	}
	if wrapped.InitialBaseline() != shiftTestBase {
		t.Fatalf("initial baseline %+v, want %+v", wrapped.InitialBaseline(), shiftTestBase)
	}
}

// TestRebaseInternalsDelegate: the wrapper must expose exactly the
// inner family's internals — replay byte-identity depends on it.
func TestRebaseInternalsDelegate(t *testing.T) {
	bare, err := NewSRAA(SRAAConfig{SampleSize: 4, Buckets: 5, Depth: 3, Baseline: shiftTestBase})
	if err != nil {
		t.Fatal(err)
	}
	wrapped := newRebaseSRAA(t, ShiftConfig{})
	for i := 0; i < 37; i++ {
		x := 4 + float64(i%3)
		bare.Observe(x)
		wrapped.Observe(x)
		if bare.Internals() != wrapped.Internals() {
			t.Fatalf("observation %d: internals diverge: %+v vs %+v", i, bare.Internals(), wrapped.Internals())
		}
	}
}

// TestRebasePausesInnerDuringRelearn: while relearning, no decision is
// evaluated — a sample straddling two regimes must never complete.
func TestRebasePausesInnerDuringRelearn(t *testing.T) {
	wrapped := newRebaseSRAA(t, ShiftConfig{})
	for i := 0; i < 50; i++ {
		wrapped.Observe(5)
	}
	evaluatedDuringRelearn := 0
	for i := 0; i < 100 && wrapped.Rebaselines() == 0; i++ {
		d := wrapped.Observe(25)
		if wrapped.Relearning() && d.Evaluated {
			evaluatedDuringRelearn++
		}
	}
	if wrapped.Rebaselines() != 1 {
		t.Fatal("shift never rebaselined")
	}
	if evaluatedDuringRelearn != 0 {
		t.Fatalf("%d decisions evaluated during relearn, want 0", evaluatedDuringRelearn)
	}
}

func TestNewRebaseValidation(t *testing.T) {
	build := func(b Baseline) (Detector, error) {
		return NewSRAA(SRAAConfig{SampleSize: 4, Buckets: 5, Depth: 3, Baseline: b})
	}
	if _, err := NewRebase(ShiftConfig{}, shiftTestBase, nil); err == nil {
		t.Fatal("nil factory must not validate")
	}
	if _, err := NewRebase(ShiftConfig{}, Baseline{Mean: 5, StdDev: -1}, build); err == nil {
		t.Fatal("invalid baseline must not validate")
	}
	if _, err := NewRebase(ShiftConfig{Relearn: 1}, shiftTestBase, build); err == nil {
		t.Fatal("invalid shift config must not validate")
	}
	if _, err := NewRebase(ShiftConfig{}, shiftTestBase, func(Baseline) (Detector, error) {
		return nil, nil
	}); err == nil {
		t.Fatal("nil detector from the factory must not validate")
	}
	if _, err := NewRebase(ShiftConfig{}, shiftTestBase, func(Baseline) (Detector, error) {
		return foreignDetector{}, nil
	}); err == nil {
		t.Fatal("a detector Rebase cannot restart must not validate")
	}
}

// foreignDetector stands in for a Detector defined outside this
// package: it has no in-place restart, so Rebase cannot wrap it.
type foreignDetector struct{}

func (foreignDetector) Observe(float64) Decision { return Decision{} }
func (foreignDetector) Reset()                   {}
