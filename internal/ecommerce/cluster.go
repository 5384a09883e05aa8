package ecommerce

import (
	"fmt"
	"math"

	"rejuv/internal/core"
	"rejuv/internal/des"
	"rejuv/internal/journal"
	"rejuv/internal/num"
	"rejuv/internal/sched"
	"rejuv/internal/xrand"
)

// Routing selects how the cluster router assigns arrivals to hosts.
type Routing int

// Routing policies.
const (
	// RouteLeastActive sends each arrival to the in-service host with
	// the fewest active threads (ties to the lowest index).
	RouteLeastActive Routing = iota
	// RouteRoundRobin cycles through in-service hosts.
	RouteRoundRobin
)

// ClusterConfig parameterizes a multi-host deployment: several copies of
// the Section-3 system behind a router, as in the authors' companion
// work on cluster systems. Each host has its own detector; rejuvenation
// is coordinated by a sched.Governor, so a host goes down only when the
// capacity budget allows it, and an action may be a Kijima-style
// partial rejuvenation instead of a full restart.
type ClusterConfig struct {
	// Hosts is the number of hosts (at least 1).
	Hosts int
	// Host is the per-host system configuration. ArrivalRate is ignored
	// (the cluster owns the arrival process); Transactions bounds the
	// cluster-wide total.
	Host Config
	// ArrivalRate is the cluster-wide lambda, in transactions/second.
	ArrivalRate float64
	// Routing selects the router policy.
	Routing Routing
	// RejuvenationPause is how long a full restart keeps a host out of
	// service, in seconds. Zero means instantaneous, as in the paper's
	// single-host model. Partial actions pause proportionally less.
	RejuvenationPause float64
	// Scheduler, when non-nil, overrides the scheduling policy. The
	// default is sched.OneDown(Hosts, RejuvenationPause) — at most one
	// host down, every action a full restart — reproducing the cluster's
	// historical behavior. Replicas may be left 0 (it is set to Hosts);
	// any other value must equal Hosts.
	Scheduler *sched.Config
	// ProactiveLevel, when positive, raises a rejuvenation request
	// whenever an evaluated detector decision reaches this bucket level,
	// without waiting for the trigger. Combined with a tiered scheduler
	// policy this is what enables cheap partial actions at moderate
	// aging. 0 requests only on delivered triggers.
	ProactiveLevel int
	// DeadlineAware, when true, declares each request's QoS horizon to
	// the scheduler: the time the host's in-flight transactions drain,
	// so a full restart deferred past it kills nothing. Meaningful only
	// with a policy whose deferral windows are enabled.
	DeadlineAware bool
	// Transactions is how many transactions must leave the cluster
	// (completed or lost) before the run ends.
	Transactions int64
	// Seed and Stream select the random number stream.
	Seed   uint64
	Stream uint64
}

// ClusterResult aggregates a cluster run.
type ClusterResult struct {
	// Result pools the cluster-wide counters and response times.
	Result
	// PerHost holds each host's completion/loss/rejuvenation counts.
	PerHost []Result
	// Partial counts rejuvenation actions that were partial (ρ < 1);
	// Rejuvenations counts every executed action, full or partial.
	Partial int64
	// Deferred counts rejuvenation requests the scheduler made wait: the
	// first deferral decision of each queue episode.
	Deferred int64
}

// Cluster is a multi-host simulation. Build with NewCluster, run with
// Run; single-use like Model.
type Cluster struct {
	cfg       ClusterConfig
	sim       *des.Simulator
	rng       *xrand.Rand
	gov       *sched.Governor
	jobs      *jobSlab
	stations  []*station
	detectors []core.Detector
	inService []bool
	obs       []uint64 // per-host observation count, for trigger ids
	rrNext    int

	jw     *journal.Writer
	tickEv des.Handle

	res      ClusterResult
	ran      bool
	stopping bool

	// OnRejuvenate, when non-nil, observes every executed rejuvenation
	// action (killed is 0 for partial actions).
	OnRejuvenate func(simTime float64, host, killed int)
	// OnTransition, when non-nil, observes every scheduler transition.
	OnTransition func(tr sched.Transition)
}

// NewCluster validates the configuration and builds the cluster. The
// factory is called once per host to create its detector; a nil factory
// disables rejuvenation on every host.
func NewCluster(cfg ClusterConfig, factory func(host int) (core.Detector, error)) (*Cluster, error) {
	if cfg.Hosts <= 0 {
		return nil, fmt.Errorf("ecommerce: cluster needs at least one host, got %d", cfg.Hosts)
	}
	if cfg.ArrivalRate <= 0 || math.IsNaN(cfg.ArrivalRate) || math.IsInf(cfg.ArrivalRate, 0) {
		return nil, fmt.Errorf("ecommerce: cluster arrival rate must be positive and finite, got %v", cfg.ArrivalRate)
	}
	if cfg.RejuvenationPause < 0 {
		return nil, fmt.Errorf("ecommerce: rejuvenation pause must be non-negative, got %v", cfg.RejuvenationPause)
	}
	if cfg.Transactions <= 0 {
		cfg.Transactions = 100_000
	}
	host := cfg.Host
	host.ArrivalRate = cfg.ArrivalRate // satisfies Validate; stations don't use it
	host = host.Default()
	if err := host.Validate(); err != nil {
		return nil, err
	}
	cfg.Host = host

	scfg := sched.OneDown(cfg.Hosts, cfg.RejuvenationPause)
	if cfg.Scheduler != nil {
		scfg = *cfg.Scheduler
		if scfg.Replicas == 0 {
			scfg.Replicas = cfg.Hosts
		} else if scfg.Replicas != cfg.Hosts {
			return nil, fmt.Errorf("ecommerce: scheduler config has %d replicas, cluster has %d hosts", scfg.Replicas, cfg.Hosts)
		}
	}
	gov, err := sched.New(scfg)
	if err != nil {
		return nil, fmt.Errorf("ecommerce: cluster scheduler: %w", err)
	}

	c := &Cluster{
		cfg:       cfg,
		rng:       xrand.NewStream(cfg.Seed, cfg.Stream),
		gov:       gov,
		jobs:      newJobSlab(),
		stations:  make([]*station, cfg.Hosts),
		detectors: make([]core.Detector, cfg.Hosts),
		inService: make([]bool, cfg.Hosts),
		obs:       make([]uint64, cfg.Hosts),
	}
	// At most one arrival is pending, so it waits in a lane, not the heap.
	c.sim = des.NewLaned(c.dispatch, evArrival)
	c.res.PerHost = make([]Result, cfg.Hosts)
	for h := 0; h < cfg.Hosts; h++ {
		c.stations[h] = newStation(host, c.sim, c.rng, c.jobs, h)
		c.inService[h] = true
		if factory != nil {
			det, err := factory(h)
			if err != nil {
				return nil, fmt.Errorf("ecommerce: detector for host %d: %w", h, err)
			}
			c.detectors[h] = det
		}
	}
	return c, nil
}

// Journal attaches a flight-recorder writer to the cluster: every
// scheduler transition (as a KindSched* record), every executed
// rejuvenation, and every full-GC stall is journaled with its virtual
// timestamp. The scheduler records replay byte-identically through
// journal.ReplaySched under SchedulerConfig(). Call before Run; pass
// nil to detach.
func (c *Cluster) Journal(jw *journal.Writer) {
	c.jw = jw
	for _, st := range c.stations {
		st.jw = jw
	}
}

// SchedulerConfig returns the defaulted scheduling policy in effect —
// the configuration a replay verifier must rebuild the governor from.
func (c *Cluster) SchedulerConfig() sched.Config { return c.gov.Config() }

// MaxDownSeen returns the high-water mark of simultaneously down hosts
// in the scheduler's replica group — the run-side witness of the
// capacity-budget law.
func (c *Cluster) MaxDownSeen() int {
	m := 0
	for grp := 0; grp < c.gov.Groups(); grp++ {
		if d := c.gov.MaxDownSeen(grp); d > m {
			m = d
		}
	}
	return m
}

// VirtualAge returns a host's accumulated Kijima virtual age in
// seconds of GC stall debt.
func (c *Cluster) VirtualAge(host int) float64 {
	if host < 0 || host >= len(c.stations) {
		return 0
	}
	return c.stations[host].virtualAge
}

// Run executes the cluster until the transaction budget is spent.
func (c *Cluster) Run() (ClusterResult, error) {
	if c.ran {
		return ClusterResult{}, fmt.Errorf("ecommerce: cluster already ran; create a new one per replication")
	}
	c.ran = true
	c.scheduleArrival()
	c.sim.Run()
	for h, st := range c.stations {
		c.res.PerHost[h].GCs = st.gcCount()
		c.res.GCs += st.gcCount()
	}
	c.res.SimTime = c.sim.Now()
	return c.res, nil
}

// dispatch is the cluster's single event handler: the simulator hands
// it every fired event, and it switches on the kind. Like Model's, it
// is the per-transaction path and must not allocate in steady state.
//
//lint:hotpath
func (c *Cluster) dispatch(kind des.Kind, arg int32) {
	switch kind {
	case evArrival:
		c.arrive()
	case evCompletion:
		h := c.jobs.jobs[arg].host
		st := c.stations[h]
		c.complete(int(h), st.complete(arg))
		st.admit()
	case evGCEnd:
		c.stations[arg].endGC()
	case evGovernorWake:
		c.tickEv = des.Handle{}
		c.apply(c.gov.Tick(c.sim.Now()))
	case evHostFinish:
		c.finish(int(arg))
	default:
		panic("ecommerce: cluster dispatched an unknown event kind")
	}
}

func (c *Cluster) scheduleArrival() {
	c.sim.Schedule(c.rng.Exp(c.cfg.ArrivalRate), evArrival, 0)
}

// arrive routes the transaction to a host. If every host is out of
// service the transaction queues on the next round-robin host and is
// served when that host returns.
func (c *Cluster) arrive() {
	c.res.Arrived++
	h := c.route()
	id := c.jobs.alloc(c.sim.Now(), h)
	c.res.PerHost[h].Arrived++
	if c.inService[h] {
		c.stations[h].enqueue(id)
	} else {
		c.stations[h].hold(id)
	}
	c.scheduleArrival()
}

// route picks the destination host according to the routing policy,
// preferring in-service hosts.
func (c *Cluster) route() int {
	switch c.cfg.Routing {
	case RouteRoundRobin:
		for tries := 0; tries < c.cfg.Hosts; tries++ {
			h := c.rrNext
			c.rrNext = (c.rrNext + 1) % c.cfg.Hosts
			if c.inService[h] {
				return h
			}
		}
		return c.rrNext
	default: // RouteLeastActive
		best, bestActive := -1, 0
		for h, st := range c.stations {
			if !c.inService[h] {
				continue
			}
			if best == -1 || st.active() < bestActive {
				best, bestActive = h, st.active()
			}
		}
		if best >= 0 {
			return best
		}
		return 0
	}
}

// complete records one finished transaction, runs the host's detector,
// and turns its verdict into a scheduler request.
func (c *Cluster) complete(h int, rt float64) {
	c.res.Completed++
	c.res.RT.Add(rt)
	c.res.PerHost[h].Completed++
	c.res.PerHost[h].RT.Add(rt)
	if det := c.detectors[h]; det != nil {
		c.obs[h]++
		d := det.Observe(rt)
		switch {
		case d.Triggered:
			c.request(h, c.gov.Config().TriggerLevel, d.Fill)
		case c.cfg.ProactiveLevel > 0 && d.Evaluated && d.Level >= c.cfg.ProactiveLevel:
			c.request(h, d.Level, d.Fill)
		}
	}
	if c.res.Completed+c.res.Lost >= c.cfg.Transactions {
		c.sim.Stop()
	}
}

// request feeds one detector verdict into the governor and applies the
// resulting transitions.
func (c *Cluster) request(h, level, fill int) {
	tid := core.TriggerID(uint64(h), c.obs[h])
	c.apply(c.gov.Request(c.sim.Now(), h, level, fill, c.deadline(h), tid))
}

// deadline returns the host's QoS horizon: the virtual time its
// currently running transactions drain, so a restart deferred past it
// kills nothing in flight. 0 when the cluster is not deadline-aware.
func (c *Cluster) deadline(h int) float64 {
	if !c.cfg.DeadlineAware {
		return 0
	}
	var d float64
	for _, id := range c.stations[h].running {
		if t := c.sim.Time(c.jobs.jobs[id].completion); t > d {
			d = t
		}
	}
	return d
}

// apply journals and accounts one governor transition group, then
// executes its dispatches. Journaling the whole group before executing
// any start keeps nested groups (an instantaneous action completing
// synchronously) strictly after their parent in the journal, which the
// replay verifier's group matching relies on.
func (c *Cluster) apply(trs []sched.Transition) {
	for _, tr := range trs {
		if c.jw != nil {
			c.jw.Record(journal.SchedRecord(tr))
		}
		if c.OnTransition != nil {
			c.OnTransition(tr)
		}
		if tr.Op == sched.OpDefer && tr.Count == 1 {
			c.res.Deferred++
		}
	}
	c.armTick()
	for _, tr := range trs {
		if tr.Op == sched.OpStart && !c.stopping {
			c.execute(tr)
		}
	}
}

// armTick schedules the next time-driven governor re-evaluation at its
// NextWake time (a deadline horizon expiring or an entry crossing the
// starvation latch).
func (c *Cluster) armTick() {
	c.sim.Cancel(c.tickEv)
	c.tickEv = des.Handle{}
	w := c.gov.NextWake(c.sim.Now())
	if math.IsInf(w, 1) {
		return
	}
	c.tickEv = c.sim.ScheduleAt(w, evGovernorWake, 0)
}

// execute performs one dispatched rejuvenation action: a full restart
// (ρ = 1) kills the host's threads and takes it out of service for the
// action's pause; a partial action restores part of the heap and stalls
// in-flight work without killing it.
func (c *Cluster) execute(tr sched.Transition) {
	h := tr.Replica
	killed := c.stations[h].rejuvenatePartial(tr.Tier.Rho, tr.Pause)
	c.res.Lost += int64(killed)
	c.res.Rejuvenations++
	c.res.PerHost[h].Lost += int64(killed)
	c.res.PerHost[h].Rejuvenations++
	if tr.Tier.Rho < 1 {
		c.res.Partial++
	}
	if c.jw != nil {
		c.jw.Rejuvenation(c.sim.Now(), killed)
	}
	if det := c.detectors[h]; det != nil {
		det.Reset()
	}
	if c.OnRejuvenate != nil {
		c.OnRejuvenate(c.sim.Now(), h, killed)
	}
	if c.res.Completed+c.res.Lost >= c.cfg.Transactions {
		c.stopping = true
		c.sim.Stop()
		return
	}
	if num.Zero(tr.Pause) {
		c.finish(h)
		return
	}
	c.inService[h] = false
	c.sim.Schedule(tr.Pause, evHostFinish, int32(h))
}

// finish returns a host to service after its action's pause and reports
// the completion to the governor, which may dispatch the next action.
func (c *Cluster) finish(h int) {
	c.inService[h] = true
	c.stations[h].tryStart()
	c.apply(c.gov.Complete(c.sim.Now(), h, true))
}
