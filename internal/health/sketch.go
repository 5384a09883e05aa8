// Package health is the fleet observability layer: compact summaries
// of where a fleet of monitored streams is aging, cheap enough to
// maintain inside the ingestion hot path and rich enough to answer the
// operator's first three questions — which streams are closest to
// triggering, how is aging distributed across the fleet, and is the
// monitoring pipeline itself healthy.
//
// The package owns the data structures and presentation (the
// Space-Saving sketch, snapshot types, text rendering, the /fleetz
// HTTP handler); the fleet engine owns their maintenance and assembles
// Snapshot values from per-shard state. health deliberately does not
// import the fleet package, so the dependency points one way:
// fleet -> health.
package health

// Sketch is a Space-Saving heavy-hitter summary of aging activity: a
// fixed set of k (stream id, count) pairs where count tallies the
// stream's aging signals (evaluated decisions at a raised bucket level,
// target exceedances, triggers). When a new stream arrives and the
// sketch is full, it replaces the minimum-count entry and inherits its
// count as an overestimate bound (Err), the classic Metwally et al.
// guarantee: any stream with true count greater than total/k is
// retained, and a reported count overestimates the true one by at most
// Err.
//
// The layout is parallel arrays scanned linearly — no map, no append —
// so Update is allocation-free and safe to run inside the fleet
// shard's drain loop under the shard lock. Linear scan over k<=64
// entries is cheaper than a map for the k this sketch is built for,
// and keeps the memory footprint fixed at construction.
//
// A Sketch is not safe for concurrent use; the fleet engine guards
// each shard's sketch with the shard mutex.
type Sketch struct {
	ids   []uint64
	count []uint64
	errs  []uint64
	mean  []float64
	nanos []int64
	n     int
}

// SketchEntry is one retained stream of a sketch.
type SketchEntry struct {
	// ID is the stream id.
	ID uint64
	// Count is the stream's aging-signal tally (an overestimate of the
	// true tally by at most Err).
	Count uint64
	// Err is the overestimation bound inherited from the entry this
	// stream evicted; 0 for streams that entered an unfull sketch.
	Err uint64
	// LastMean is the sample mean of the stream's most recent signal.
	LastMean float64
	// LastNanos is the wall-clock time of that signal, in nanoseconds.
	LastNanos int64
}

// NewSketch returns a sketch retaining up to k streams (minimum 1).
func NewSketch(k int) *Sketch {
	if k < 1 {
		k = 1
	}
	return &Sketch{
		ids:   make([]uint64, k),
		count: make([]uint64, k),
		errs:  make([]uint64, k),
		mean:  make([]float64, k),
		nanos: make([]int64, k),
	}
}

// Update folds one aging signal for a stream into the sketch: a known
// stream's count is bumped, a new stream takes a free slot, and when
// the sketch is full the minimum-count entry is evicted Space-Saving
// style (the newcomer starts at min+1 with Err=min).
//
// Allocation-free; called from the fleet drain loop under the shard
// lock.
func (s *Sketch) Update(id uint64, mean float64, nowNanos int64) {
	min := 0
	for i := 0; i < s.n; i++ {
		if s.ids[i] == id {
			s.count[i]++
			s.mean[i] = mean
			s.nanos[i] = nowNanos
			return
		}
		if s.count[i] < s.count[min] {
			min = i
		}
	}
	if s.n < len(s.ids) {
		i := s.n
		s.n++
		s.ids[i] = id
		s.count[i] = 1
		s.errs[i] = 0
		s.mean[i] = mean
		s.nanos[i] = nowNanos
		return
	}
	s.errs[min] = s.count[min]
	s.count[min]++
	s.ids[min] = id
	s.mean[min] = mean
	s.nanos[min] = nowNanos
}

// AppendEntries appends the retained entries to dst (in slot order,
// not ranked) and returns the extended slice. Snapshot-path only; the
// caller ranks the combined entries with TopK.
func (s *Sketch) AppendEntries(dst []SketchEntry) []SketchEntry {
	for i := 0; i < s.n; i++ {
		dst = append(dst, SketchEntry{
			ID:        s.ids[i],
			Count:     s.count[i],
			Err:       s.errs[i],
			LastMean:  s.mean[i],
			LastNanos: s.nanos[i],
		})
	}
	return dst
}
