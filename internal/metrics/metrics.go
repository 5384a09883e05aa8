// Package metrics is a dependency-free registry of counters, gauges and
// fixed-bucket histograms for instrumenting the monitor and the
// simulators. It exists because the paper's whole premise is monitoring
// a customer-affecting metric, so the monitoring machinery itself must
// be observable: detector bucket occupancy, sample sizes, trigger
// counts and simulation state are published through one registry and
// exposed in Prometheus text format or JSON (see expose.go).
//
// Hot paths are lock-free: counters and gauges are single atomic words,
// histogram observation is a binary search, one atomic add and a
// compare-and-swap on the sum, so instruments can be updated from
// request handlers and simulation inner loops without contention.
// Registration (Counter, Gauge, Histogram) is idempotent and takes a
// mutex; do it once at setup, not per update.
//
// The package deliberately imports nothing beyond the standard library
// (and only sync, sync/atomic, math, sort, strconv, strings, io,
// net/http, encoding/json at that), so the deterministic simulation
// packages may depend on it without dragging in wall-clock time or
// ambient entropy.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Label is one name="value" pair attached to an instrument. A series is
// identified by its metric name plus its sorted label set.
type Label struct {
	// Name is the label key; it should match [a-zA-Z_][a-zA-Z0-9_]*.
	Name string
	// Value is the label value, escaped on exposition.
	Value string
}

// Kind discriminates the instrument types of a family.
type Kind int

// Instrument kinds, in exposition vocabulary.
const (
	// KindCounter is a monotonically increasing integer count.
	KindCounter Kind = iota
	// KindGauge is an arbitrary float64 that may go up and down.
	KindGauge
	// KindHistogram is a fixed-bucket cumulative histogram.
	KindHistogram
)

// String returns the Prometheus TYPE keyword for the kind.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Counter is a monotonically increasing count. The zero value is ready
// to use, but counters are normally obtained from a Registry so they
// appear in the exposition.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a float64 that may move in both directions (queue length,
// heap level, bucket pointer). The zero value reads 0 and is ready to
// use.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v. A gauge that already holds v's exact bits is left
// alone: the load is then the linearization point, as the store would
// have been, and the gauges a monitor sets on every observation skip a
// fenced store while their value stands still. Bits, not values, are
// compared, so +0 over -0 and one NaN payload over another still store.
func (g *Gauge) Set(v float64) {
	if b := math.Float64bits(v); g.bits.Load() != b {
		g.bits.Store(b)
	}
}

// SetInt stores an integer value, a convenience for level/length gauges.
func (g *Gauge) SetInt(v int) { g.Set(float64(v)) }

// Add adds delta with a compare-and-swap loop.
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		cur := math.Float64frombits(old)
		if g.bits.CompareAndSwap(old, math.Float64bits(cur+delta)) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram counts observations into fixed buckets with inclusive upper
// bounds ("le" semantics): an observation lands in the first bucket
// whose upper bound is >= the value, and above the last bound it lands
// in the implicit +Inf bucket. Counts are cumulative only at exposition
// time; internally each bucket counts its own range, so observation is
// one atomic add plus the sum's compare-and-swap, and the total count is
// the sum of the buckets.
type Histogram struct {
	upper   []float64 // sorted, strictly increasing, finite
	counts  []atomic.Uint64
	inf     atomic.Uint64
	sumBits atomic.Uint64
}

// newHistogram validates and copies the bucket bounds.
func newHistogram(buckets []float64) (*Histogram, error) {
	if len(buckets) == 0 {
		return nil, fmt.Errorf("metrics: histogram needs at least one bucket bound")
	}
	upper := append([]float64(nil), buckets...)
	for i, b := range upper {
		if math.IsNaN(b) || math.IsInf(b, 0) {
			return nil, fmt.Errorf("metrics: histogram bucket bound %v must be finite", b)
		}
		if i > 0 && b <= upper[i-1] {
			return nil, fmt.Errorf("metrics: histogram bounds must be strictly increasing, got %v after %v",
				b, upper[i-1])
		}
	}
	return &Histogram{upper: upper, counts: make([]atomic.Uint64, len(upper))}, nil
}

// Observe records one value. NaN observations are dropped: they carry
// no ordering information and would poison the sum.
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) {
		return
	}
	// First bound >= v; sort.SearchFloat64s finds the first >= for exact
	// matches because bounds are strictly increasing.
	i := sort.SearchFloat64s(h.upper, v)
	if i < len(h.upper) {
		h.counts[i].Add(1)
	} else {
		h.inf.Add(1)
	}
	for {
		old := h.sumBits.Load()
		cur := math.Float64frombits(old)
		if h.sumBits.CompareAndSwap(old, math.Float64bits(cur+v)) {
			return
		}
	}
}

// Count returns the total number of observations: the sum of every
// bucket's own count, +Inf included, so it always equals the +Inf
// bucket's cumulative count. Read concurrently with observation it is
// weakly consistent, like Buckets.
func (h *Histogram) Count() uint64 {
	n := h.inf.Load()
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Buckets returns the cumulative bucket counts paired with their upper
// bounds, excluding the +Inf bucket (whose cumulative count is Count).
// Reading concurrently with observation gives a weakly consistent view:
// each bucket is atomically read, but the set is not a snapshot.
func (h *Histogram) Buckets() []BucketCount {
	out := make([]BucketCount, len(h.upper))
	var cum uint64
	for i, ub := range h.upper {
		cum += h.counts[i].Load()
		out[i] = BucketCount{UpperBound: ub, CumulativeCount: cum}
	}
	return out
}

// Quantile estimates the q-quantile (0 <= q <= 1) of the observed
// distribution by linear interpolation within the fixed buckets, the
// standard Prometheus histogram_quantile estimate: the target rank is
// located in the cumulative bucket counts and the value interpolated
// between the bucket's bounds, assuming observations spread uniformly
// inside each bucket. The estimate's resolution is therefore the bucket
// width around the quantile. It returns NaN when the histogram is empty
// or q is NaN; within the first bucket it interpolates from a lower
// edge of 0 (the convention for non-negative metrics like latencies),
// and when the rank lands in the +Inf bucket it returns the last finite
// upper bound, the tightest answer the bounded buckets allow. Reading
// concurrently with observation gives a weakly consistent estimate,
// like Buckets.
func (h *Histogram) Quantile(q float64) float64 {
	if math.IsNaN(q) {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	total := h.Count()
	if total == 0 {
		return math.NaN()
	}
	rank := q * float64(total)
	var cum uint64
	for i, ub := range h.upper {
		c := h.counts[i].Load()
		if c == 0 {
			cum += c
			continue
		}
		if float64(cum+c) >= rank {
			lower := 0.0
			if i > 0 {
				lower = h.upper[i-1]
			}
			frac := (rank - float64(cum)) / float64(c)
			if frac < 0 {
				frac = 0
			}
			if frac > 1 {
				frac = 1
			}
			return lower + frac*(ub-lower)
		}
		cum += c
	}
	// The rank lies in the +Inf bucket; the last finite bound is the
	// tightest answer the fixed buckets allow.
	return h.upper[len(h.upper)-1]
}

// BucketCount is one cumulative histogram bucket: the number of
// observations less than or equal to UpperBound.
type BucketCount struct {
	// UpperBound is the inclusive upper edge of the bucket.
	UpperBound float64 `json:"le"`
	// CumulativeCount counts observations <= UpperBound.
	CumulativeCount uint64 `json:"count"`
}

// LinearBuckets returns n bounds start, start+width, ... for histogram
// registration.
func LinearBuckets(start, width float64, n int) []float64 {
	if n <= 0 || width <= 0 {
		panic(fmt.Sprintf("metrics: linear buckets need positive count and width, got n=%d width=%v", n, width))
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = start + float64(i)*width
	}
	return out
}

// ExponentialBuckets returns n bounds start, start*factor, ... for
// histogram registration. start must be positive and factor > 1.
func ExponentialBuckets(start, factor float64, n int) []float64 {
	if n <= 0 || start <= 0 || factor <= 1 {
		panic(fmt.Sprintf("metrics: exponential buckets need n>0, start>0, factor>1, got n=%d start=%v factor=%v",
			n, start, factor))
	}
	out := make([]float64, n)
	b := start
	for i := range out {
		out[i] = b
		b *= factor
	}
	return out
}

// DefLatencyBuckets is the default bucket scheme for latency histograms:
// 18 exponential bounds from 1 ms to ~131 s (doubling), wide enough for
// both millisecond HTTP services and the simulator's multi-second (and,
// under GC stalls, multi-minute) response times.
var DefLatencyBuckets = ExponentialBuckets(0.001, 2, 18)

// series is one registered instrument with its identity.
type series struct {
	name   string
	labels []Label // sorted by name
	kind   Kind
	help   string

	counter   *Counter
	gauge     *Gauge
	histogram *Histogram
}

// key returns the identity string name{l1="v1",...} used for lookup and
// deterministic ordering.
func (s *series) key() string { return seriesKey(s.name, s.labels) }

func seriesKey(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	out := name + "{"
	for i, l := range labels {
		if i > 0 {
			out += ","
		}
		out += l.Name + "=" + escapeLabel(l.Value)
	}
	return out + "}"
}

// Registry holds instruments and renders them (see expose.go). The zero
// value is not usable; call NewRegistry.
type Registry struct {
	mu     sync.Mutex
	series map[string]*series // guarded by mu
	order  []*series          // sorted by (name, label signature); guarded by mu
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{series: make(map[string]*series)}
}

// Counter returns the counter for (name, labels), registering it on
// first use. Registering the same identity with a different kind panics:
// that is a programming error, not a runtime condition.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	s := r.lookup(name, help, KindCounter, labels)
	return s.counter
}

// Gauge returns the gauge for (name, labels), registering it on first
// use.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	s := r.lookup(name, help, KindGauge, labels)
	return s.gauge
}

// Histogram returns the histogram for (name, labels), registering it on
// first use with the given bucket upper bounds (see DefLatencyBuckets).
// Bounds must be finite and strictly increasing; they are fixed at
// first registration and later calls for the same identity ignore the
// argument.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...Label) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	sorted := sortLabels(labels)
	key := seriesKey(name, sorted)
	if s, ok := r.series[key]; ok {
		if s.kind != KindHistogram {
			panic(fmt.Sprintf("metrics: %s already registered as %s, requested histogram", key, s.kind))
		}
		return s.histogram
	}
	h, err := newHistogram(buckets)
	if err != nil {
		panic(err) // invalid bounds are a programming error at setup time
	}
	s := &series{name: name, labels: sorted, kind: KindHistogram, help: help, histogram: h}
	r.insert(key, s)
	return h
}

// lookup returns the series for (name, labels, kind), creating counters
// and gauges on demand. Caller-visible identity conflicts panic.
func (r *Registry) lookup(name, help string, kind Kind, labels []Label) *series {
	r.mu.Lock()
	defer r.mu.Unlock()
	sorted := sortLabels(labels)
	key := seriesKey(name, sorted)
	if s, ok := r.series[key]; ok {
		if s.kind != kind {
			panic(fmt.Sprintf("metrics: %s already registered as %s, requested %s", key, s.kind, kind))
		}
		return s
	}
	s := &series{name: name, labels: sorted, kind: kind, help: help}
	switch kind {
	case KindCounter:
		s.counter = &Counter{}
	case KindGauge:
		s.gauge = &Gauge{}
	default:
		panic(fmt.Sprintf("metrics: lookup cannot create %s", kind))
	}
	r.insert(key, s)
	return s
}

// insert stores the series keeping order sorted; r.mu is held.
//
//lint:holds mu
func (r *Registry) insert(key string, s *series) {
	r.series[key] = s
	order := r.order
	i := sort.Search(len(order), func(i int) bool { return order[i].key() >= key })
	r.order = append(r.order, nil)
	copy(r.order[i+1:], r.order[i:])
	r.order[i] = s
}

// snapshotSeries returns the registered series in deterministic order.
func (r *Registry) snapshotSeries() []*series {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*series(nil), r.order...)
}

// sortLabels copies and sorts labels by name, rejecting duplicates and
// empty names (panics: label sets are fixed at setup time).
func sortLabels(labels []Label) []Label {
	if len(labels) == 0 {
		return nil
	}
	out := append([]Label(nil), labels...)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	for i, l := range out {
		if l.Name == "" {
			panic("metrics: empty label name")
		}
		if i > 0 && l.Name == out[i-1].Name {
			panic(fmt.Sprintf("metrics: duplicate label %q", l.Name))
		}
	}
	return out
}
