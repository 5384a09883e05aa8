package metrics

import (
	"math"
	"strings"
	"sync"
	"testing"

	"rejuv/internal/num"
)

func TestCounterAndGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "a counter")
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
	g := r.Gauge("g", "a gauge")
	g.Set(1.5)
	g.Add(-0.25)
	if got := g.Value(); !num.Close(got, 1.25) {
		t.Fatalf("gauge = %v, want 1.25", got)
	}
	g.SetInt(7)
	if got := g.Value(); !num.Close(got, 7) {
		t.Fatalf("gauge = %v, want 7", got)
	}
}

func TestRegistryIdempotentAndConflicts(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "help", Label{Name: "host", Value: "0"})
	b := r.Counter("x_total", "ignored on re-registration", Label{Name: "host", Value: "0"})
	if a != b {
		t.Fatal("same identity returned distinct counters")
	}
	other := r.Counter("x_total", "help", Label{Name: "host", Value: "1"})
	if a == other {
		t.Fatal("distinct label values shared a counter")
	}
	// Label order must not matter for identity.
	h1 := r.Gauge("y", "", Label{Name: "a", Value: "1"}, Label{Name: "b", Value: "2"})
	h2 := r.Gauge("y", "", Label{Name: "b", Value: "2"}, Label{Name: "a", Value: "1"})
	if h1 != h2 {
		t.Fatal("label order changed series identity")
	}

	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge did not panic")
		}
	}()
	r.Gauge("x_total", "", Label{Name: "host", Value: "0"})
}

// TestConcurrentUpdates exercises every instrument from many goroutines;
// run under -race this is the package's data-race gate, and the final
// counts must still be exact because updates are atomic.
func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hits_total", "")
	g := r.Gauge("level", "")
	h := r.Histogram("lat", "", []float64{1, 2, 4})

	const (
		workers   = 8
		perWorker = 5000
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(i % 5))
				// Concurrent registration of the same identity must be safe too.
				r.Counter("hits_total", "")
			}
		}(w)
	}
	wg.Wait()

	const total = workers * perWorker
	if got := c.Value(); got != total {
		t.Errorf("counter = %d, want %d", got, total)
	}
	if got := g.Value(); !num.Close(got, total) {
		t.Errorf("gauge = %v, want %d", got, total)
	}
	if got := h.Count(); got != total {
		t.Errorf("histogram count = %d, want %d", got, total)
	}
	// Each worker observes 0,1,2,3,4 cyclically: sum = perWorker/5 * 10.
	wantSum := float64(workers) * float64(perWorker) / 5 * 10
	if got := h.Sum(); !num.Close(got, wantSum) {
		t.Errorf("histogram sum = %v, want %v", got, wantSum)
	}
}

// TestGaugeSetUnchangedBits pins what Set's skip of an unchanged value
// compares: bits, not values. +0 over -0 and one NaN payload over
// another must still store; and Set racing Add must leave a value some
// interleaving of the two produces (under -race, also no data race).
func TestGaugeSetUnchangedBits(t *testing.T) {
	var g Gauge
	bits := func() uint64 { return math.Float64bits(g.Value()) }
	g.Set(0) // the zero gauge already holds +0
	if bits() != 0 {
		t.Fatalf("Set(+0) on a zero gauge: bits %#x", bits())
	}
	negZero := math.Copysign(0, -1)
	g.Set(negZero)
	if bits() != math.Float64bits(negZero) {
		t.Fatalf("Set(-0) after +0: bits %#x, want %#x", bits(), math.Float64bits(negZero))
	}
	g.Set(0)
	if bits() != 0 {
		t.Fatalf("Set(+0) after -0: bits %#x, want 0", bits())
	}
	for _, b := range []uint64{0x7ff8_0000_0000_0001, 0x7ff8_0000_0000_0002, 0x7ff8_0000_0000_0002} {
		g.Set(math.Float64frombits(b))
		if bits() != b {
			t.Fatalf("Set(NaN %#x): bits %#x", b, bits())
		}
	}

	g.Set(0)
	const n = 20000
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			g.Add(1)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			g.Set(0) // usually the bits differ, sometimes they match
		}
	}()
	wg.Wait()
	if v := g.Value(); v < 0 || v > n || !num.Same(v, math.Trunc(v)) {
		t.Fatalf("after %d racing Adds of 1 and Sets of 0 the gauge reads %v", n, v)
	}
}

// TestHistogramCountIsBucketSum checks that Count is the sum of the
// buckets' own counts, +Inf included, so the exposition's _count always
// equals its +Inf bucket, also while observers run concurrently.
func TestHistogramCountIsBucketSum(t *testing.T) {
	h, err := newHistogram([]float64{1, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	check := func(want uint64) {
		t.Helper()
		buckets := h.Buckets()
		sum := buckets[len(buckets)-1].CumulativeCount + h.inf.Load()
		if got := h.Count(); got != sum || got != want {
			t.Fatalf("Count() = %d, buckets plus +Inf = %d, want %d", got, sum, want)
		}
	}
	check(0)
	for _, v := range []float64{0.5, 1, 3, 4, 5, math.Inf(1), math.NaN(), -2} {
		h.Observe(v)
	}
	check(7) // NaN is dropped

	const workers, perWorker = 4, 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				h.Observe(float64(i % 6))
			}
		}()
	}
	wg.Wait()
	check(7 + workers*perWorker)

	r := NewRegistry()
	rh := r.Histogram("lat", "", []float64{1, 2})
	for _, v := range []float64{0.5, 1.5, 3, 9} {
		rh.Observe(v)
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{"lat_bucket{le=\"+Inf\"} 4\n", "lat_count 4\n"} {
		if !strings.Contains(b.String(), line) {
			t.Errorf("exposition lacks %q:\n%s", line, b.String())
		}
	}
}

// TestHistogramBucketBoundaries pins the inclusive-upper-bound ("le")
// semantics on exact boundary values.
func TestHistogramBucketBoundaries(t *testing.T) {
	bounds := []float64{0.5, 1, 2.5}
	cases := []struct {
		value float64
		want  []uint64 // cumulative counts per bound after observing value
		inf   uint64
	}{
		{value: 0.25, want: []uint64{1, 1, 1}},
		{value: 0.5, want: []uint64{1, 1, 1}}, // on the bound: counted (le)
		{value: 0.500001, want: []uint64{0, 1, 1}},
		{value: 1, want: []uint64{0, 1, 1}},
		{value: 2.5, want: []uint64{0, 0, 1}},
		{value: 2.5000001, want: []uint64{0, 0, 0}, inf: 1},
		{value: math.Inf(1), want: []uint64{0, 0, 0}, inf: 1},
		{value: -1, want: []uint64{1, 1, 1}},
	}
	for _, tc := range cases {
		h, err := newHistogram(bounds)
		if err != nil {
			t.Fatal(err)
		}
		h.Observe(tc.value)
		buckets := h.Buckets()
		for i, b := range buckets {
			if !num.Same(b.UpperBound, bounds[i]) {
				t.Errorf("value %v: bucket %d bound = %v, want %v", tc.value, i, b.UpperBound, bounds[i])
			}
			if b.CumulativeCount != tc.want[i] {
				t.Errorf("value %v: cumulative count at le=%v is %d, want %d",
					tc.value, b.UpperBound, b.CumulativeCount, tc.want[i])
			}
		}
		wantTotal := tc.want[len(tc.want)-1] + tc.inf
		if h.Count() != wantTotal {
			t.Errorf("value %v: total count %d, want %d", tc.value, h.Count(), wantTotal)
		}
	}
}

func TestHistogramDropsNaN(t *testing.T) {
	h, err := newHistogram([]float64{1})
	if err != nil {
		t.Fatal(err)
	}
	h.Observe(math.NaN())
	if h.Count() != 0 {
		t.Fatalf("NaN was counted: count = %d", h.Count())
	}
}

func TestHistogramRejectsBadBounds(t *testing.T) {
	for _, bounds := range [][]float64{
		nil,
		{},
		{1, 1},
		{2, 1},
		{math.NaN()},
		{math.Inf(1)},
	} {
		if _, err := newHistogram(bounds); err == nil {
			t.Errorf("bounds %v accepted", bounds)
		}
	}
}

func TestBucketHelpers(t *testing.T) {
	lin := LinearBuckets(1, 0.5, 4)
	wantLin := []float64{1, 1.5, 2, 2.5}
	for i := range wantLin {
		if !num.Close(lin[i], wantLin[i]) {
			t.Errorf("linear bucket %d = %v, want %v", i, lin[i], wantLin[i])
		}
	}
	exp := ExponentialBuckets(0.001, 2, 4)
	wantExp := []float64{0.001, 0.002, 0.004, 0.008}
	for i := range wantExp {
		if !num.Close(exp[i], wantExp[i]) {
			t.Errorf("exponential bucket %d = %v, want %v", i, exp[i], wantExp[i])
		}
	}
	if _, err := newHistogram(DefLatencyBuckets); err != nil {
		t.Errorf("DefLatencyBuckets invalid: %v", err)
	}
}

func TestHistogramQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("q_test", "quantile fixture", []float64{1, 2, 4, 8})

	if v := h.Quantile(0.5); !math.IsNaN(v) {
		t.Errorf("empty histogram quantile = %v, want NaN", v)
	}
	if v := h.Quantile(math.NaN()); !math.IsNaN(v) {
		t.Errorf("NaN quantile = %v, want NaN", v)
	}

	// 100 observations spread uniformly over (0, 4]: 25 in (0,1], 25 in
	// (1,2], 50 in (2,4], none beyond.
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i) * 0.04)
	}
	// The rank of q=0.5 is 50, the upper edge of bucket (1,2].
	if got := h.Quantile(0.5); !num.Close(got, 2) {
		t.Errorf("p50 = %v, want 2", got)
	}
	// q=0.25 exhausts the first bucket: interpolation from lower edge 0.
	if got := h.Quantile(0.25); !num.Close(got, 1) {
		t.Errorf("p25 = %v, want 1", got)
	}
	// q=0.625 lands in (2,4]: rank 62.5 is 12.5/50 into the bucket.
	if got := h.Quantile(0.625); !num.Close(got, 2.5) {
		t.Errorf("p62.5 = %v, want 2.5", got)
	}
	// q=0 clamps to the smallest populated value region.
	if got := h.Quantile(0); got < 0 || got > 1 {
		t.Errorf("p0 = %v, want within the first bucket", got)
	}
	// q=1 is the upper edge of the last populated bucket.
	if got := h.Quantile(1); !num.Close(got, 4) {
		t.Errorf("p100 = %v, want 4", got)
	}

	// Observations beyond the last bound land in +Inf; the estimate
	// saturates at the last finite bound.
	h.Observe(1e9)
	if got := h.Quantile(1); !num.Close(got, 8) {
		t.Errorf("p100 with +Inf mass = %v, want last finite bound 8", got)
	}

	// Out-of-range q clamps rather than erroring.
	if got := h.Quantile(2); !num.Close(got, 8) {
		t.Errorf("q=2 = %v, want clamp to 8", got)
	}
	if got := h.Quantile(-1); math.IsNaN(got) {
		t.Errorf("q=-1 = NaN, want clamped estimate")
	}
}

func TestHistogramQuantileSingleBucket(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("q_single", "one-bucket fixture", []float64{10})
	h.Observe(3)
	h.Observe(7)
	if got := h.Quantile(0.5); !num.Close(got, 5) {
		t.Errorf("p50 = %v, want 5 (uniform-in-bucket assumption)", got)
	}
}
