// Package ecommerce implements the simulation model of the paper's
// Section 3: a multi-tier Java e-commerce system reduced to a 16-CPU
// FCFS queue with two aging mechanisms layered on top — kernel overhead
// when more than 50 threads are active, and full-GC stalls when the JVM
// heap runs low — plus a rejuvenation hook driven by a response-time
// detector.
//
// With both mechanisms and rejuvenation disabled the model degenerates
// to a pure M/M/c system, which is how the paper validates the
// analytical results of Section 4.1 and runs its autocorrelation study.
// Cluster extends the model to several hosts behind a router, following
// the cluster systems of the authors' companion work.
package ecommerce

import (
	"fmt"
	"math"

	"rejuv/internal/core"
	"rejuv/internal/des"
	"rejuv/internal/faults"
	"rejuv/internal/journal"
	"rejuv/internal/num"
	"rejuv/internal/stats"
	"rejuv/internal/xrand"
)

// Config parameterizes the model. Zero fields take the paper's values
// via Default; only ArrivalRate has no sensible default.
type Config struct {
	// ArrivalRate is lambda, in transactions/second.
	ArrivalRate float64
	// Servers is c, the number of CPUs (paper: 16).
	Servers int
	// ServiceRate is mu, in transactions/second per CPU (paper: 0.2).
	ServiceRate float64
	// ServiceDistribution selects the CPU processing-time distribution.
	// The paper uses the exponential (the default, empty string);
	// "erlang2" (CV ~0.71) and "hyper2" (CV 2) exist for the
	// distributional-sensitivity ablation, all with the same mean
	// 1/ServiceRate.
	ServiceDistribution ServiceDistribution
	// OverheadThreshold is the number of active threads above which
	// kernel overhead kicks in (paper: 50).
	OverheadThreshold int
	// OverheadFactor multiplies the service time under overhead
	// (paper: 2.0).
	OverheadFactor float64
	// HeapMB is the JVM heap size in MB (paper: 3 GB).
	HeapMB float64
	// AllocMB is the memory allocated per transaction in MB (paper: 10).
	AllocMB float64
	// GCThresholdMB is the remaining-heap level that schedules a full
	// GC (paper: 100).
	GCThresholdMB float64
	// GCPause is the full-GC stall applied to all running threads, in
	// seconds (paper: 60).
	GCPause float64
	// RejuvenationPause takes the system out of service for this many
	// seconds per rejuvenation. The paper's rejuvenation is
	// instantaneous (zero); the ablation benchmarks use this to study
	// how a restart cost changes the picture. Arrivals during the pause
	// queue up and are served afterwards.
	RejuvenationPause float64
	// RejuvenationInterval, when positive, rejuvenates the system every
	// that many seconds of virtual time regardless of observed response
	// times — the classical time-based policy of the rejuvenation
	// literature (Huang et al.), included as a baseline for the paper's
	// measurement-driven algorithms. It composes with a detector: both
	// can trigger.
	RejuvenationInterval float64
	// BurstFactor, BurstOn and BurstOff add an on-off (Markov-modulated)
	// overlay to the Poisson arrival process: during a burst the
	// arrival rate is ArrivalRate*BurstFactor; burst and quiet periods
	// last exponentially distributed times with means BurstOn and
	// BurstOff seconds. A BurstFactor of 0 or 1 disables bursts. The
	// paper's bucket design exists precisely to tolerate such bursts
	// without rejuvenating; the burst experiments exercise that claim.
	BurstFactor float64
	BurstOn     float64
	BurstOff    float64
	// Workload, when non-nil, modulates the arrival rate over virtual
	// time with a deterministic piecewise-constant profile (diurnal
	// cycles, flash crowds, ramps) — legitimate workload movement, as
	// opposed to the stochastic burst overlay. It composes with bursts:
	// both factors multiply.
	Workload *WorkloadShape
	// LeakyGC makes full garbage collections fail to reclaim the heap:
	// the per-transaction allocations are true leaks and only
	// rejuvenation restores capacity. Under this reading of the paper's
	// "memory leaks" the system enters a soft-failure regime (every
	// service start stalls all running threads) once the heap is
	// exhausted, and rejuvenation is the only recovery. The default
	// (false) has full GC restore the heap, which matches the paper's
	// "time needed to perform a full garbage collection" framing; the
	// ablation benchmarks exercise both.
	LeakyGC bool
	// DisableOverhead turns off the kernel-overhead mechanism.
	DisableOverhead bool
	// DisableGC turns off the memory/GC mechanism.
	DisableGC bool
	// Hygiene governs non-finite observations reaching the detector,
	// mirroring the production Monitor's policy. The simulation's own
	// response times are always finite, so this only matters under fault
	// injection (Model.InjectFaults). The zero value rejects.
	Hygiene core.Hygiene
	// Transactions is how many transactions must leave the system
	// (completed or lost) before the replication ends (paper: 100,000).
	Transactions int64
	// Seed and Stream select the random number stream; replications use
	// the same seed with distinct streams.
	Seed   uint64
	Stream uint64
}

// Default returns cfg with every zero field replaced by the paper's
// value for it.
func (cfg Config) Default() Config {
	if cfg.Servers == 0 {
		cfg.Servers = 16
	}
	if num.Zero(cfg.ServiceRate) {
		cfg.ServiceRate = 0.2
	}
	if cfg.OverheadThreshold == 0 {
		cfg.OverheadThreshold = 50
	}
	if num.Zero(cfg.OverheadFactor) {
		cfg.OverheadFactor = 2.0
	}
	if num.Zero(cfg.HeapMB) {
		cfg.HeapMB = 3072
	}
	if num.Zero(cfg.AllocMB) {
		cfg.AllocMB = 10
	}
	if num.Zero(cfg.GCThresholdMB) {
		cfg.GCThresholdMB = 100
	}
	if num.Zero(cfg.GCPause) {
		cfg.GCPause = 60
	}
	if cfg.Transactions == 0 {
		cfg.Transactions = 100_000
	}
	return cfg
}

// Validate reports whether the (defaulted) configuration is usable.
func (cfg Config) Validate() error {
	switch {
	case cfg.ArrivalRate <= 0 || math.IsNaN(cfg.ArrivalRate) || math.IsInf(cfg.ArrivalRate, 0):
		return fmt.Errorf("ecommerce: arrival rate must be positive and finite, got %v", cfg.ArrivalRate)
	case cfg.Servers <= 0:
		return fmt.Errorf("ecommerce: need at least one server, got %d", cfg.Servers)
	case cfg.ServiceRate <= 0:
		return fmt.Errorf("ecommerce: service rate must be positive, got %v", cfg.ServiceRate)
	case cfg.OverheadFactor < 1:
		return fmt.Errorf("ecommerce: overhead factor must be >= 1, got %v", cfg.OverheadFactor)
	case cfg.AllocMB <= 0 || cfg.HeapMB <= cfg.GCThresholdMB:
		return fmt.Errorf("ecommerce: heap %v MB must exceed GC threshold %v MB and allocation %v MB must be positive",
			cfg.HeapMB, cfg.GCThresholdMB, cfg.AllocMB)
	case cfg.GCPause < 0:
		return fmt.Errorf("ecommerce: GC pause must be non-negative, got %v", cfg.GCPause)
	case cfg.RejuvenationPause < 0:
		return fmt.Errorf("ecommerce: rejuvenation pause must be non-negative, got %v", cfg.RejuvenationPause)
	case cfg.BurstFactor < 0 || (cfg.BurstFactor > 1 && (cfg.BurstOn <= 0 || cfg.BurstOff <= 0)):
		return fmt.Errorf("ecommerce: bursts need factor >= 1 and positive on/off durations, got factor=%v on=%v off=%v",
			cfg.BurstFactor, cfg.BurstOn, cfg.BurstOff)
	case cfg.BurstFactor > 0 && cfg.BurstFactor < 1:
		return fmt.Errorf("ecommerce: burst factor %v below 1 would model a lull, not a burst", cfg.BurstFactor)
	case cfg.RejuvenationInterval < 0 || math.IsNaN(cfg.RejuvenationInterval):
		return fmt.Errorf("ecommerce: rejuvenation interval must be non-negative, got %v", cfg.RejuvenationInterval)
	case cfg.Transactions <= 0:
		return fmt.Errorf("ecommerce: transactions must be positive, got %d", cfg.Transactions)
	}
	if _, err := cfg.ServiceDistribution.sampler(cfg.ServiceRate); err != nil {
		return err
	}
	if cfg.Workload != nil {
		if err := cfg.Workload.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// Result aggregates one replication.
type Result struct {
	// Arrived counts transactions that entered the system.
	Arrived int64
	// Completed counts transactions that finished service.
	Completed int64
	// Lost counts transactions killed by rejuvenation.
	Lost int64
	// Rejuvenations counts rejuvenation events.
	Rejuvenations int64
	// Rebaselines counts workload-shift rebaselines the detector
	// committed (zero unless the detector is a core.Rebaseliner).
	Rebaselines int64
	// GCs counts full garbage collections.
	GCs int64
	// RT accumulates the response times of completed transactions.
	RT stats.Welford
	// Injected counts faults injected into the detector's observation
	// stream (zero without Model.InjectFaults).
	Injected int64
	// Rejected counts non-finite observations intercepted by the hygiene
	// policy before the detector.
	Rejected int64
	// SimTime is the virtual time at which the replication ended.
	SimTime float64
}

// AvgRT returns the mean response time of completed transactions.
func (r Result) AvgRT() float64 { return r.RT.Mean() }

// LossFraction returns lost / (lost + completed), the paper's
// rejuvenation cost metric.
func (r Result) LossFraction() float64 {
	done := r.Completed + r.Lost
	if done == 0 {
		return 0
	}
	return float64(r.Lost) / float64(done)
}

// Model is one replication of the Section-3 system. Build with New, run
// with Run. A model is single-use: Run may be called once.
type Model struct {
	cfg      Config
	sim      *des.Simulator
	rng      *xrand.Rand
	detector core.Detector // nil disables rejuvenation
	feed     core.Feed     // steps detector behind the hygiene policy
	jobs     *jobSlab
	st       *station

	// paused is true while a non-zero RejuvenationPause is in progress;
	// arrivals queue but nothing is served. pauseEnd is the pending
	// un-pause event so that a second rejuvenation during a pause
	// extends the outage instead of ending it early.
	paused   bool
	pauseEnd des.Handle
	// bursting is true while the on-off arrival overlay is in its
	// high-rate phase; nextArrival is the pending arrival event, which
	// toggles reschedule (valid because the exponential inter-arrival
	// time is memoryless, this resampling is exactly the Markov-
	// modulated Poisson process).
	bursting    bool
	nextArrival des.Handle
	// wlFactor is the active workload-shape rate factor (1 without a
	// shape); wlIdx is the active phase index.
	wlFactor float64
	wlIdx    int

	res Result
	ran bool

	// met is nil unless Instrument was called; ticks holds the periodic
	// callbacks registered via Tick, armed when Run starts.
	met   *modelMetrics
	ticks []tick

	// jw is nil unless Journal was called.
	jw *journal.Writer

	// inj is nil unless InjectFaults was called.
	inj *faults.Injector

	// OnComplete, when non-nil, receives the response time of every
	// completed transaction; the autocorrelation study uses it to
	// record the full series.
	OnComplete func(rt float64)
	// OnRejuvenate, when non-nil, is called after every rejuvenation
	// with the number of transactions it killed.
	OnRejuvenate func(simTime float64, killed int)
}

// New returns a model for the given configuration and detector. A nil
// detector disables rejuvenation entirely (the implicit baseline of the
// paper's figures).
func New(cfg Config, detector core.Detector) (*Model, error) {
	cfg = cfg.Default()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := &Model{
		cfg:      cfg,
		rng:      xrand.NewStream(cfg.Seed, cfg.Stream),
		detector: detector,
		feed:     core.NewFeed(detector),
		jobs:     newJobSlab(),
		wlFactor: 1,
	}
	// At most one arrival is pending, so it waits in a lane, not the heap.
	m.sim = des.NewLaned(m.dispatch, evArrival)
	m.st = newStation(cfg, m.sim, m.rng, m.jobs, 0)
	return m, nil
}

// Run executes the replication until cfg.Transactions transactions have
// left the system, and returns the aggregated result.
func (m *Model) Run() (Result, error) {
	if m.ran {
		return Result{}, fmt.Errorf("ecommerce: model already ran; create a new one per replication")
	}
	m.start()
	m.sim.Run()
	m.res.GCs = m.st.gcCount()
	m.res.SimTime = m.sim.Now()
	return m.res, nil
}

// start marks the model as run and arms its initial events.
func (m *Model) start() {
	m.ran = true
	m.scheduleArrival()
	if m.cfg.BurstFactor > 1 {
		m.scheduleBurstToggle()
	}
	if m.cfg.Workload != nil {
		m.applyWorkloadPhase()
	}
	if m.cfg.RejuvenationInterval > 0 {
		m.sim.Schedule(m.cfg.RejuvenationInterval, evPeriodicRejuvenation, 0)
	}
	for i, tk := range m.ticks {
		m.sim.Schedule(tk.interval, evTick, int32(i))
	}
}

// dispatch is the model's single event handler: the simulator hands it
// every fired event, and it switches on the kind. Everything it reaches
// is the per-transaction path of every simulated figure, so it must not
// allocate in steady state.
//
//lint:hotpath
func (m *Model) dispatch(kind des.Kind, arg int32) {
	switch kind {
	case evArrival:
		m.arrive()
	case evCompletion:
		m.complete(m.st.complete(arg))
		m.st.admit()
	case evGCEnd:
		m.st.endGC()
	case evPauseEnd:
		m.paused = false
		m.pauseEnd = des.Handle{}
		m.st.tryStart()
	case evBurstToggle:
		m.bursting = !m.bursting
		// Resample the pending inter-arrival time at the new rate;
		// memorylessness makes this the exact modulated process.
		m.resampleArrival()
		m.scheduleBurstToggle()
	case evWorkloadPhase:
		m.nextWorkloadPhase()
	case evPeriodicRejuvenation:
		m.rejuvenate()
		m.sim.Schedule(m.cfg.RejuvenationInterval, evPeriodicRejuvenation, 0)
	case evTick:
		tk := m.ticks[arg]
		tk.fn(m.sim.Now())
		m.sim.Schedule(tk.interval, evTick, arg)
	default:
		panic("ecommerce: model dispatched an unknown event kind")
	}
}

// currentArrivalRate returns the instantaneous lambda, including any
// active burst.
func (m *Model) currentArrivalRate() float64 {
	rate := m.cfg.ArrivalRate * m.wlFactor
	if m.bursting {
		rate *= m.cfg.BurstFactor
	}
	return rate
}

// scheduleArrival schedules the next Poisson arrival at the current rate.
func (m *Model) scheduleArrival() {
	m.nextArrival = m.sim.Schedule(m.rng.Exp(m.currentArrivalRate()), evArrival, 0)
}

// resampleArrival replaces the pending arrival with one drawn at the
// current rate.
func (m *Model) resampleArrival() {
	if m.sim.Pending(m.nextArrival) {
		m.sim.Cancel(m.nextArrival)
		m.scheduleArrival()
	}
}

// scheduleBurstToggle schedules the end of the current on/off phase.
func (m *Model) scheduleBurstToggle() {
	mean := m.cfg.BurstOff
	if m.bursting {
		mean = m.cfg.BurstOn
	}
	m.sim.Schedule(m.rng.Exp(1/mean), evBurstToggle, 0)
}

// arrive is paper step 1: a thread arrives and the next arrival is
// scheduled. During a rejuvenation pause the thread waits in the queue
// without being admitted to a CPU.
func (m *Model) arrive() {
	m.res.Arrived++
	id := m.jobs.alloc(m.sim.Now(), 0)
	if m.paused {
		m.st.hold(id)
		m.st.noteState()
	} else {
		m.st.enqueue(id)
	}
	m.scheduleArrival()
}

// complete is paper step 8: record the response time, feed the detector,
// maybe rejuvenate, and stop the replication when the transaction budget
// is spent.
func (m *Model) complete(rt float64) {
	m.res.Completed++
	m.res.RT.Add(rt)
	if m.met != nil {
		m.met.rt.Observe(rt)
	}
	if m.OnComplete != nil {
		m.OnComplete(rt)
	}
	if m.detector != nil {
		if m.inj != nil {
			// The injector may emit zero, one or two observations for this
			// response time; the slice is consumed before the next Apply.
			for _, v := range m.inj.Apply(rt) {
				m.feedDetector(v)
			}
		} else {
			m.feedDetector(rt)
		}
	}
	if m.res.Completed+m.res.Lost >= m.cfg.Transactions {
		m.sim.Stop()
	}
}

// feedDetector routes one (possibly fault-injected) observation through
// the hygiene policy into the detector, as the production Monitor does:
// intercepted values are counted and journaled as faults but never
// reach the detector, so the journal's replayed decision stream stays
// byte-identical.
func (m *Model) feedDetector(x float64) {
	s := m.feed.Observe(m.cfg.Hygiene, x)
	if s.Intercepted {
		m.res.Rejected++
	}
	if s.Rebased {
		m.res.Rebaselines++
	}
	// One snapshot of the detector's internals serves both the gauges
	// and the decision record. The model has no trigger cooldown — every
	// trigger rejuvenates — so no decision is ever suppressed.
	var in core.Internals
	instrumented := false
	if s.Admitted && (m.met != nil || (m.jw != nil && (s.Decision.Evaluated || s.Decision.Triggered))) {
		in, instrumented = m.feed.Internals()
	}
	if m.jw != nil {
		m.jw.Step(m.sim.Now(), 0, x, s, in, false, 0)
	}
	if m.met != nil && instrumented {
		m.met.setDetector(in)
	}
	if s.Decision.Triggered {
		m.rejuvenate()
	}
}

// rejuvenate kills every thread in the system, restores the heap and,
// when RejuvenationPause is set, takes the station out of service for
// that long.
func (m *Model) rejuvenate() {
	killed := m.st.rejuvenate()
	m.res.Lost += int64(killed)
	m.res.Rejuvenations++
	if m.met != nil {
		m.met.rejuvenations.Inc()
		m.met.lost.Add(uint64(killed))
	}
	if m.jw != nil {
		m.jw.Rejuvenation(m.sim.Now(), killed)
	}
	if m.detector != nil {
		m.detector.Reset()
		if m.jw != nil {
			m.jw.Reset(m.sim.Now())
		}
		m.publishDetector()
	}
	if m.cfg.RejuvenationPause > 0 {
		m.paused = true
		m.sim.Cancel(m.pauseEnd)
		m.pauseEnd = m.sim.Schedule(m.cfg.RejuvenationPause, evPauseEnd, 0)
	}
	if m.OnRejuvenate != nil {
		m.OnRejuvenate(m.sim.Now(), killed)
	}
	if m.res.Completed+m.res.Lost >= m.cfg.Transactions {
		m.sim.Stop()
	}
}
