package fleet

import (
	"sync"
	"time"

	"rejuv/internal/core"
	"rejuv/internal/streamindex"
)

// StreamObs is one observation addressed to one stream — the unit of
// batched ingestion.
type StreamObs struct {
	// Stream is the target stream id.
	Stream StreamID
	// Value is the observed metric (a response time in seconds).
	Value float64
}

// result is the per-item outcome drainLocked hands to the fan-in pass,
// parallel to the batch: the item's detector step, in the form
// journal.(*Writer).Step records, plus what the fleet adds around it.
type result struct {
	step       core.Step
	obs        uint64 // the stream's observation count after this item
	classIdx   int32
	sampleSize int32 // sample size in effect after the step
	flags      uint8
}

// result flags.
const (
	// resSuppressed: the step triggered inside the cooldown window.
	resSuppressed uint8 = 1 << iota
	// resUnknown: the stream is not open; the item was dropped.
	resUnknown
)

// scratch is the reusable working memory of one ObserveBatch call,
// pooled so steady-state ingestion allocates nothing. Slices are grown
// to the high-water mark and kept.
type scratch struct {
	start  []int32  // per-shard segment offsets (len shards+1)
	cursor []int32  // per-shard fill cursors during partition
	hash   []uint64 // each batch item's stream-id mix
	order  []int32  // batch indices grouped by shard
	slots  []int32  // resolved slot per order entry, -1 if not open
	res    []result
	cc     []classCounts // per-class metric aggregation
}

// scratchPool is package-wide, shared by every engine: grow resizes a
// scratch for any shard, batch or class count. A pool embedded in the
// Engine would be an interior pointer into it, and the runtime keeps
// each pool it has seen a Put on until two collections later, so a
// closed engine, with its shards, index, trigger queue and detector
// state, would outlive the next collection.
var scratchPool = sync.Pool{New: func() any { return &scratch{} }}

// classCounts accumulates one batch's per-class counter increments, so
// the shared metric counters are touched once per class per batch
// instead of once per observation.
type classCounts struct {
	obs, trig, supp, rej, reb uint64
}

// grow sizes the scratch for a batch of n items over nshards shards and
// nclasses classes.
func (sc *scratch) grow(n, nshards, nclasses int) {
	if cap(sc.start) < nshards+1 {
		sc.start = make([]int32, nshards+1)
		sc.cursor = make([]int32, nshards)
	}
	sc.start = sc.start[:nshards+1]
	sc.cursor = sc.cursor[:nshards]
	if cap(sc.order) < n {
		sc.hash = make([]uint64, n)
		sc.order = make([]int32, n)
		sc.slots = make([]int32, n)
		sc.res = make([]result, n)
	}
	sc.hash = sc.hash[:n]
	sc.order = sc.order[:n]
	sc.slots = sc.slots[:n]
	sc.res = sc.res[:n]
	if cap(sc.cc) < nclasses {
		sc.cc = make([]classCounts, nclasses)
	}
	sc.cc = sc.cc[:nclasses]
	for i := range sc.cc {
		sc.cc[i] = classCounts{}
	}
}

// ObserveBatch ingests one batch of observations. Each item's stream id
// is mixed once; the batch is partitioned by shard on the mix's low
// bits with a counting sort (stable, so a stream's observations stay in
// batch order), each shard's segment is drained under a single lock
// acquisition, and the results fan back in in original batch order for
// journaling, metrics and trigger delivery. One clock reading
// timestamps the whole batch.
//
// Items addressed to streams that are not open are counted and dropped.
// Triggers that find the delivery queue full are counted and dropped
// rather than blocking ingestion.
//
// Safe for concurrent use; for a byte-deterministic journal, ingest
// from one goroutine (see the Engine determinism contract).
func (e *Engine) ObserveBatch(batch []StreamObs) {
	if len(batch) == 0 {
		return
	}
	now := e.cfg.Now()
	nowNanos := now.UnixNano()
	sc := scratchPool.Get().(*scratch)
	sc.grow(len(batch), len(e.shards), len(e.classes))

	// Counting sort by shard: count, prefix-sum, scatter.
	for i := range sc.cursor {
		sc.cursor[i] = 0
	}
	for i := range batch {
		h := streamindex.Mix(uint64(batch[i].Stream))
		sc.hash[i] = h
		sc.cursor[e.shardOf(h)]++
	}
	pos := int32(0)
	for i := range sc.cursor {
		sc.start[i] = pos
		pos += sc.cursor[i]
		sc.cursor[i] = sc.start[i]
	}
	sc.start[len(e.shards)] = pos
	for i := range batch {
		si := e.shardOf(sc.hash[i])
		sc.order[sc.cursor[si]] = int32(i)
		sc.cursor[si]++
	}

	// Drain each shard's segment under one lock acquisition.
	for si := range e.shards {
		lo, hi := sc.start[si], sc.start[si+1]
		if lo == hi {
			continue
		}
		s := &e.shards[si]
		s.mu.Lock()
		s.drainLocked(e.classes, e.cfg.Hygiene, nowNanos, batch, sc.hash, sc.order[lo:hi], sc.slots[lo:hi], sc.res)
		s.mu.Unlock()
	}

	e.fanIn(now, batch, sc)
	scratchPool.Put(sc)
}

// fanIn walks the results in original batch order — the order journal
// determinism is defined over — writing journal records, aggregating
// metrics and enqueueing triggers. It holds outMu so concurrent batches
// and lifecycle calls serialize on the output side only.
func (e *Engine) fanIn(now time.Time, batch []StreamObs, sc *scratch) {
	var unknown, dropped uint64
	jw := e.cfg.Journal
	var t float64
	e.outMu.Lock()
	if jw != nil {
		if e.epoch.IsZero() {
			e.epoch = now
		}
		t = now.Sub(e.epoch).Seconds()
	}
	for i := range batch {
		r := &sc.res[i]
		if r.flags&resUnknown != 0 {
			unknown++
			continue
		}
		cc := &sc.cc[r.classIdx]
		cc.obs++
		s := &r.step
		if s.Intercepted {
			cc.rej++
		}
		if s.Rebased {
			cc.reb++
			e.lastBase[r.classIdx] = s.Baseline
		}
		// The trigger id is minted at decision time from inputs that are
		// deterministic across shard counts (stream id, per-stream
		// observation ordinal), so the same workload always yields the
		// same ids regardless of Config.Shards.
		var tid uint64
		if s.Decision.Triggered {
			tid = core.TriggerID(uint64(batch[i].Stream), r.obs)
		}
		suppressed := r.flags&resSuppressed != 0
		if jw != nil {
			in := core.Internals{SampleSize: int(r.sampleSize)}
			jw.Step(t, uint64(batch[i].Stream), batch[i].Value, s, in, suppressed, tid)
		}
		if !s.Decision.Triggered {
			continue
		}
		if suppressed {
			cc.supp++
			continue
		}
		cc.trig++
		tr := Trigger{
			ID:           tid,
			Stream:       batch[i].Stream,
			Class:        e.classes[r.classIdx].cfg.Name,
			Time:         now,
			Decision:     s.Decision,
			Observations: r.obs,
		}
		select {
		case e.trigs <- tr:
		default:
			dropped++
		}
	}
	e.outMu.Unlock()

	for ci := range sc.cc {
		cc := &sc.cc[ci]
		if cc.obs > 0 {
			e.obsTotal[ci].Add(cc.obs)
		}
		if cc.trig > 0 {
			e.trigTotal[ci].Add(cc.trig)
		}
		if cc.supp > 0 {
			e.suppTotal[ci].Add(cc.supp)
		}
		if cc.rej > 0 {
			e.rejTotal[ci].Add(cc.rej)
		}
		if cc.reb > 0 {
			e.rebTotal[ci].Add(cc.reb)
		}
	}
	if unknown > 0 {
		e.unknownTotal.Add(unknown)
	}
	if dropped > 0 {
		e.dropTotal.Add(dropped)
	}
}
