// Package fleet is the multi-tenant monitoring engine: it runs the
// paper's rejuvenation detectors over very many observation streams at
// once — one web tier is one stream; a fleet is hundreds of thousands —
// behind one batched ingestion call.
//
// The public Monitor (package rejuv) is the one-stream instantiation of
// the detection pipeline: one lock, one detector object, one cooldown.
// That shape does not scale to a fleet: a detector object per stream
// scatters state across the heap, a lock per observation serializes
// ingestion, and a metrics series per stream melts the registry. The
// fleet engine changes all three axes at once:
//
//   - Sharding. Streams live in lock-striped shards (a power of two,
//     sized from GOMAXPROCS by default), each owning contiguous
//     per-slot arrays of stream state, so concurrent batches
//     contend per shard, not per fleet, and a shard's drain loop walks
//     adjacent memory.
//
//   - Batching. ObserveBatch partitions a batch by shard with one
//     counting sort, drains each shard's portion under a single lock
//     acquisition, and fans results back in original batch order for
//     journaling and trigger delivery. The per-observation cost is a
//     few array writes; the locks and the clock are amortized across
//     the batch.
//
//   - Bounded cardinality. All streams share one journal writer and one
//     metrics registry. Metrics are labeled by stream class and shard,
//     never by stream id; the exact id appears only in journal records,
//     which are built for unbounded cardinality.
//
// Stream state is a set of parallel slices indexed by slot: one
// core.State (sample block and bucket counter), hygiene memory,
// cooldown, watchdog and shift state per stream; each shard's flat,
// open-addressed stream index maps an open stream id to its slot. Each
// class compiles to one core.Plan, and the drain steps a stream with
// the same kernel calls (core.State.Add, core.Plan.Decide) the
// pointer-based detectors make, against the class baseline or the
// stream's re-estimated one. Journal replay (journal.Replay) against
// those reference detectors checks the shell around the kernel —
// hygiene, cooldown, shift layering, journaling — byte for byte; see
// DESIGN §14 for the memory model, the batching contract and the
// determinism story.
package fleet

import (
	"fmt"
	"math/bits"
	"runtime"
	"strconv"
	"sync"
	"time"

	"rejuv/internal/core"
	"rejuv/internal/health"
	"rejuv/internal/journal"
	"rejuv/internal/metrics"
	"rejuv/internal/streamindex"
)

// StreamID identifies one monitored observation stream. Ids are chosen
// by the caller (a host index, a hashed tenant key); the engine treats
// them as opaque and spreads them over shards with a mixing hash, so
// sequential ids do not pile onto one shard. Id 0 is reserved: it is
// the single-detector Monitor's stream in journals and trigger ids.
type StreamID uint64

// Trigger is one rejuvenation trigger raised by a fleet stream,
// delivered through the engine's bounded trigger queue.
type Trigger struct {
	// ID is the deterministic correlation id minted at decision time
	// (core.TriggerID over the stream id and its observation ordinal).
	// The same id appears on the stream's journal decision record and on
	// every actuation record the trigger provokes, so rejuvtrace can
	// stitch the observation -> decision -> actuation chain back together.
	ID uint64
	// Stream is the stream whose detector triggered.
	Stream StreamID
	// Class is the stream's class name.
	Class string
	// Time is the batch timestamp the trigger was decided at.
	Time time.Time
	// Decision is the detector decision that fired it.
	Decision core.Decision
	// Observations is how many observations the stream had consumed when
	// the trigger fired.
	Observations uint64
}

// Config configures an Engine.
type Config struct {
	// Classes declares the stream classes. Required, fixed at
	// construction; every stream is opened under one of them.
	Classes []ClassConfig
	// Shards is the number of lock stripes; it is rounded up to a power
	// of two. Zero means one shard per GOMAXPROCS core.
	Shards int
	// Cooldown suppresses a stream's further triggers for this long
	// after one is delivered for it. Zero disables suppression.
	Cooldown time.Duration
	// Hygiene governs non-finite observations before they reach detector
	// state, exactly as in the single-stream Monitor: the zero value
	// rejects them, HygieneClamp substitutes the stream's last admitted
	// value, HygieneOff passes them through.
	Hygiene core.Hygiene
	// MaxSilence arms the per-stream staleness watchdog evaluated by
	// CheckStalls. Zero disables it.
	MaxSilence time.Duration
	// Now supplies the time, read once per ObserveBatch call. Required;
	// the public wrapper defaults it to time.Now, and deterministic
	// harnesses inject a fake.
	Now func() time.Time
	// Journal, when non-nil, records stream lifecycle and every item's
	// detector step as stream-tagged records, in batch order: the record
	// group journal.(*Writer).Step writes for the Monitor, so a
	// non-finite value intercepted by hygiene is journaled as a fault
	// record carrying its stream. Replay feeds admitted values only and
	// skips fault records, so the decision stream is unaffected. The
	// engine serializes access; the caller owns the writer and its
	// flushing.
	Journal *journal.Writer
	// Registry receives the engine's metrics (class- and shard-labeled;
	// see package doc for the cardinality policy). Nil means a private
	// registry, so instrument updates never need nil checks.
	Registry *metrics.Registry
	// QueueDepth bounds the trigger delivery queue. When the queue is
	// full further triggers are counted as dropped rather than blocking
	// ingestion: the fleet premise is that monitoring must never become
	// the fleet's own tail latency. Zero means 1024.
	QueueDepth int
	// OnTrigger, when non-nil, starts a dispatcher goroutine that drains
	// the trigger queue and invokes the callback with panic isolation.
	// When nil the caller drains Triggers itself.
	OnTrigger func(Trigger)
	// HealthTopK sizes the per-shard top-K aging sketch behind
	// HealthSnapshot (the fleet-wide view merges the shards and keeps
	// the K most aged). Zero means the default of 32; negative disables
	// the sketch and exemplar capture entirely, leaving HealthSnapshot
	// with counters and the level histogram only.
	HealthTopK int
}

// Stats is an aggregate snapshot of engine counters; per-class series
// live in the metrics registry.
type Stats struct {
	// Observations counts every batch item addressed to a known stream.
	Observations uint64
	// Triggers counts triggers enqueued for delivery.
	Triggers uint64
	// Suppressed counts triggers eaten by per-stream cooldown windows.
	Suppressed uint64
	// Rebaselines counts committed workload-shift rebaselines across all
	// streams of shift-enabled classes.
	Rebaselines uint64
	// Rejected counts non-finite observations intercepted by hygiene.
	Rejected uint64
	// UnknownStreams counts batch items addressed to streams not open.
	UnknownStreams uint64
	// DroppedTriggers counts triggers lost to a full delivery queue.
	DroppedTriggers uint64
	// TriggerPanics counts panics recovered from the OnTrigger callback.
	TriggerPanics uint64
	// Stalls counts staleness-watchdog trips detected by CheckStalls.
	Stalls uint64
	// OpenStreams is the number of streams currently under monitoring.
	OpenStreams int
}

// Engine is the fleet monitoring engine. All methods are safe for
// concurrent use; the journal determinism guarantee (byte-identical
// journals for any shard count and GOMAXPROCS) holds when one goroutine
// performs the Open/ObserveBatch/Close sequence, because journal records
// are written in call and batch order.
type Engine struct {
	cfg     Config
	classes []class
	byName  map[string]int32

	shards    []shard
	shardMask uint64

	// outMu serializes the ordered output side — journal writes and
	// trigger enqueueing — across ObserveBatch, OpenStream and
	// CloseStream, keeping the journal's record order equal to call
	// order.
	outMu sync.Mutex
	// epoch anchors journal timestamps at the first journaled event.
	epoch time.Time // guarded by outMu
	// lastBase holds, per class, the (µ, σ) committed by the most
	// recent workload-shift rebaseline — surfaced in health snapshots
	// so an operator can see what baseline a class currently answers
	// to. Guarded by outMu, like the journal order it mirrors.
	lastBase []core.Baseline

	trigs chan Trigger
	quit  chan struct{}
	wg    sync.WaitGroup

	// Per-class instruments, indexed like classes.
	obsTotal  []*metrics.Counter
	trigTotal []*metrics.Counter
	suppTotal []*metrics.Counter
	rejTotal  []*metrics.Counter
	rebTotal  []*metrics.Counter
	// Per-shard open-stream gauges, indexed like shards.
	openGauge []*metrics.Gauge
	// Engine-wide instruments.
	unknownTotal *metrics.Counter
	dropTotal    *metrics.Counter
	panicTotal   *metrics.Counter
	stallTotal   *metrics.Counter

	// healthK is the resolved top-K sketch size (0 when disabled);
	// maxLvl is the deepest bucket level any class can reach, sizing
	// the per-shard exemplar arrays and the snapshot level histogram.
	healthK int
	maxLvl  int
	// selfGauges mirror runtime self-telemetry into the registry at
	// each HealthSnapshot.
	selfGauges *health.SelfGauges
}

// New validates the configuration and returns a running engine. If
// OnTrigger is set, a dispatcher goroutine is started; stop it with
// Close.
func New(cfg Config) (*Engine, error) {
	if len(cfg.Classes) == 0 {
		return nil, fmt.Errorf("fleet: engine needs at least one stream class")
	}
	if cfg.Now == nil {
		return nil, fmt.Errorf("fleet: engine needs a Now clock (the public wrapper defaults it to time.Now)")
	}
	if cfg.Cooldown < 0 {
		return nil, fmt.Errorf("fleet: cooldown must be non-negative, got %v", cfg.Cooldown)
	}
	nshards := cfg.Shards
	if nshards <= 0 {
		nshards = runtime.GOMAXPROCS(0)
	}
	nshards = 1 << bits.Len(uint(nshards-1)) // round up to a power of two
	depth := cfg.QueueDepth
	if depth <= 0 {
		depth = 1024
	}
	e := &Engine{
		cfg:       cfg,
		byName:    make(map[string]int32, len(cfg.Classes)),
		shards:    make([]shard, nshards),
		shardMask: uint64(nshards - 1),
		trigs:     make(chan Trigger, depth),
		quit:      make(chan struct{}),
	}
	e.classes = make([]class, len(cfg.Classes))
	for i, cc := range cfg.Classes {
		c, err := compileClass(cc)
		if err != nil {
			return nil, err
		}
		if _, dup := e.byName[cc.Name]; dup {
			return nil, fmt.Errorf("fleet: duplicate class name %q", cc.Name)
		}
		e.classes[i] = c
		e.byName[cc.Name] = int32(i)
	}
	for i := range e.shards {
		e.shards[i].index = streamindex.New()
	}
	for _, c := range e.classes {
		e.maxLvl = max(e.maxLvl, c.plan.Buckets())
	}
	e.healthK = cfg.HealthTopK
	if e.healthK == 0 {
		e.healthK = 32
	}
	if e.healthK < 0 {
		e.healthK = 0
	}
	if e.healthK > 0 {
		for i := range e.shards {
			s := &e.shards[i]
			s.mu.Lock()
			s.sketch = health.NewSketch(e.healthK)
			s.ex = make([]exemplar, e.maxLvl+1)
			s.mu.Unlock()
		}
	}
	e.register()
	if cfg.OnTrigger != nil {
		e.wg.Add(1)
		go e.dispatch()
	}
	return e, nil
}

// register creates the engine's instruments in the configured registry
// (or a private one), realizing the bounded-cardinality label policy:
// classes and shards are the only label dimensions.
func (e *Engine) register() {
	reg := e.cfg.Registry
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	n := len(e.classes)
	e.obsTotal = make([]*metrics.Counter, n)
	e.trigTotal = make([]*metrics.Counter, n)
	e.suppTotal = make([]*metrics.Counter, n)
	e.rejTotal = make([]*metrics.Counter, n)
	e.rebTotal = make([]*metrics.Counter, n)
	e.lastBase = make([]core.Baseline, n)
	for i, c := range e.classes {
		l := metrics.Label{Name: "class", Value: c.cfg.Name}
		e.obsTotal[i] = reg.Counter("fleet_observations_total", "observations ingested per stream class", l)
		e.trigTotal[i] = reg.Counter("fleet_triggers_total", "rejuvenation triggers enqueued per stream class", l)
		e.suppTotal[i] = reg.Counter("fleet_suppressed_total", "triggers suppressed by cooldown per stream class", l)
		e.rejTotal[i] = reg.Counter("fleet_rejected_total", "non-finite observations intercepted per stream class", l)
		e.rebTotal[i] = reg.Counter("fleet_rebaselines_total", "workload-shift rebaselines committed per stream class", l)
	}
	e.openGauge = make([]*metrics.Gauge, len(e.shards))
	for i := range e.shards {
		e.openGauge[i] = reg.Gauge("fleet_open_streams", "streams currently monitored per shard",
			metrics.Label{Name: "shard", Value: strconv.Itoa(i)})
	}
	e.unknownTotal = reg.Counter("fleet_unknown_stream_total", "batch items addressed to unopened streams")
	e.dropTotal = reg.Counter("fleet_dropped_triggers_total", "triggers dropped on a full delivery queue")
	e.panicTotal = reg.Counter("fleet_trigger_panics_total", "panics recovered from the OnTrigger callback")
	e.stallTotal = reg.Counter("fleet_stalls_total", "staleness-watchdog trips across all streams")
	e.selfGauges = health.InstrumentSelf(reg)
}

// shardOf maps a stream id's mix to its shard: the low bits, so dense
// sequential ids spread evenly and the stream index keeps the high bits.
func (e *Engine) shardOf(h uint64) uint64 {
	return h & e.shardMask
}

// OpenStream brings a stream under monitoring in the named class. The
// slot costs a few dozen bytes of per-slot state; closed slots
// are recycled, so open/close churn does not grow the shard. Id 0 is
// reserved and rejected.
func (e *Engine) OpenStream(id StreamID, className string) error {
	if id == 0 {
		return fmt.Errorf("fleet: stream id 0 is reserved for the single-detector stream")
	}
	ci, ok := e.byName[className]
	if !ok {
		return fmt.Errorf("fleet: unknown stream class %q", className)
	}
	e.outMu.Lock()
	defer e.outMu.Unlock()
	h := streamindex.Mix(uint64(id))
	si := e.shardOf(h)
	s := &e.shards[si]
	s.mu.Lock()
	err := s.open(id, h, ci, &e.classes[ci], e.cfg)
	open := s.opened
	s.mu.Unlock()
	if err != nil {
		return err
	}
	e.openGauge[si].SetInt(open)
	if jw := e.cfg.Journal; jw != nil {
		now := e.cfg.Now()
		if e.epoch.IsZero() {
			e.epoch = now
		}
		jw.StreamOpen(now.Sub(e.epoch).Seconds(), uint64(id), className)
	}
	return nil
}

// CloseStream removes a stream from monitoring, recycling its slot.
// Pending partial samples are discarded; the stream's contribution to
// class counters remains.
func (e *Engine) CloseStream(id StreamID) error {
	e.outMu.Lock()
	defer e.outMu.Unlock()
	h := streamindex.Mix(uint64(id))
	si := e.shardOf(h)
	s := &e.shards[si]
	s.mu.Lock()
	err := s.close(id, h)
	open := s.opened
	s.mu.Unlock()
	if err != nil {
		return err
	}
	e.openGauge[si].SetInt(open)
	if jw := e.cfg.Journal; jw != nil && !e.epoch.IsZero() {
		jw.StreamClose(e.cfg.Now().Sub(e.epoch).Seconds(), uint64(id))
	}
	return nil
}

// Triggers returns the delivery queue. Drain it when no OnTrigger
// callback is configured; the channel is never closed.
func (e *Engine) Triggers() <-chan Trigger { return e.trigs }

// Stats returns an aggregate snapshot of the engine counters.
func (e *Engine) Stats() Stats {
	var st Stats
	for i := range e.classes {
		st.Observations += e.obsTotal[i].Value()
		st.Triggers += e.trigTotal[i].Value()
		st.Suppressed += e.suppTotal[i].Value()
		st.Rejected += e.rejTotal[i].Value()
		st.Rebaselines += e.rebTotal[i].Value()
	}
	st.UnknownStreams = e.unknownTotal.Value()
	st.DroppedTriggers = e.dropTotal.Value()
	st.TriggerPanics = e.panicTotal.Value()
	st.Stalls = e.stallTotal.Value()
	for i := range e.shards {
		s := &e.shards[i]
		s.mu.Lock()
		st.OpenStreams += s.opened
		s.mu.Unlock()
	}
	return st
}

// CheckStalls evaluates every stream's staleness watchdog against the
// current clock and returns how many streams are stalled. Each
// transition into the stalled state is counted once; the next
// observation on the stream clears it. With MaxSilence zero this is a
// cheap no-op sweep. The sweep walks slot arrays, never maps, so its
// cost is linear and its order deterministic.
func (e *Engine) CheckStalls() int {
	if e.cfg.MaxSilence <= 0 {
		return 0
	}
	nowNanos := e.cfg.Now().UnixNano()
	stalled := 0
	var tripped uint64
	for i := range e.shards {
		s := &e.shards[i]
		s.mu.Lock()
		for slot := range s.live {
			if !s.live[slot] {
				continue
			}
			if trip, _ := s.dog[slot].Check(nowNanos); trip {
				tripped++
			}
			if s.dog[slot].Stalled() {
				stalled++
			}
		}
		s.mu.Unlock()
	}
	if tripped > 0 {
		e.stallTotal.Add(tripped)
	}
	return stalled
}

// Close stops the dispatcher goroutine, if one was started, after it
// drains whatever the queue holds. It does not flush the journal — the
// caller owns the writer. The engine must not be used after Close.
func (e *Engine) Close() {
	close(e.quit)
	e.wg.Wait()
}

// dispatch is the trigger dispatcher goroutine: it drains the queue into
// the OnTrigger callback with panic isolation, so one panicking consumer
// cannot kill delivery for the rest of the fleet.
func (e *Engine) dispatch() {
	defer e.wg.Done()
	for {
		select {
		case tr := <-e.trigs:
			e.deliver(tr)
		case <-e.quit:
			// Drain what is already queued, then exit.
			for {
				select {
				case tr := <-e.trigs:
					e.deliver(tr)
				default:
					return
				}
			}
		}
	}
}

// deliver invokes OnTrigger, recovering and counting a panic.
func (e *Engine) deliver(tr Trigger) {
	defer func() {
		if r := recover(); r != nil {
			e.panicTotal.Inc()
		}
	}()
	e.cfg.OnTrigger(tr)
}
