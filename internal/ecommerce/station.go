package ecommerce

import (
	"rejuv/internal/des"
	"rejuv/internal/journal"
	"rejuv/internal/xrand"
)

// station is the serving machinery of one host: CPUs, FCFS queue, heap
// and GC state. The single-host Model wraps one station; Cluster wraps
// several behind a router. The owner dispatches the station's events
// (completions and GC ends), handles completed transactions and decides
// when to rejuvenate.
type station struct {
	cfg     Config
	sim     *des.Simulator
	rng     *xrand.Rand
	service func(*xrand.Rand) float64 // processing-time sampler
	jobs    *jobSlab                  // shared with the owner's other stations
	host    int32                     // index among the owner's stations

	freeCPUs  int
	queue     []int32 // job ids, FIFO; live entries are queue[queueHead:]
	queueHead int
	running   []int32 // job ids
	heapMB    float64
	gcActive  bool
	gcEnd     des.Handle

	gcs int64
	// virtualAge is the station's accumulated aging in the Kijima sense:
	// every full GC adds its stall to the age, a partial rejuvenation
	// rolls back a fraction ρ of it, a full one resets it to zero.
	virtualAge float64

	// met is nil unless the owning model was instrumented; jw is nil
	// unless it was journaled.
	met *stationMetrics
	jw  *journal.Writer
}

// newStation returns a station with all CPUs free and a full heap,
// drawing its jobs from jobs. cfg must already be defaulted and
// validated.
func newStation(cfg Config, sim *des.Simulator, rng *xrand.Rand, jobs *jobSlab, host int) *station {
	sampler, err := cfg.ServiceDistribution.sampler(cfg.ServiceRate)
	if err != nil {
		// Unreachable: Validate checked the distribution already.
		panic(err)
	}
	return &station{
		cfg:      cfg,
		sim:      sim,
		rng:      rng,
		service:  sampler,
		jobs:     jobs,
		host:     int32(host),
		freeCPUs: cfg.Servers,
		heapMB:   cfg.HeapMB,
	}
}

// active returns the number of threads on the station (queued + running),
// the paper's "threads executing in parallel" count.
func (s *station) active() int { return s.queueLen() + len(s.running) }

// queueLen returns the number of queued threads.
func (s *station) queueLen() int { return len(s.queue) - s.queueHead }

// gcCount returns the number of full garbage collections so far.
func (s *station) gcCount() int64 { return s.gcs }

// enqueue is paper step 2: the thread queues for a CPU.
func (s *station) enqueue(id int32) {
	s.hold(id)
	s.admit()
}

// hold queues a thread without admitting it, for a station that is out
// of service.
func (s *station) hold(id int32) {
	//lint:allow hotpath amortized growth to the peak backlog; tryStart compacts the dead prefix in place
	s.queue = append(s.queue, id)
}

// tryStart moves queued threads onto free CPUs. Nothing starts during a
// stop-the-world GC stall.
func (s *station) tryStart() {
	for s.freeCPUs > 0 && !s.gcActive && s.queueLen() > 0 {
		id := s.queue[s.queueHead]
		s.queueHead++
		// Reclaim the dead prefix once it dominates the backing array,
		// keeping dequeue amortized O(1) without unbounded growth.
		if s.queueHead > 64 && s.queueHead*2 >= len(s.queue) {
			s.queue = s.queue[:copy(s.queue, s.queue[s.queueHead:])]
			s.queueHead = 0
		}
		s.startService(id)
	}
}

// startService is paper steps 3–6: sample the processing time, apply
// kernel overhead, seize a CPU, allocate memory, and possibly trigger a
// full GC.
func (s *station) startService(id int32) {
	s.freeCPUs--
	service := s.service(s.rng)
	if !s.cfg.DisableOverhead && s.active() > s.cfg.OverheadThreshold {
		service *= s.cfg.OverheadFactor
	}
	j := &s.jobs.jobs[id]
	j.slot = int32(len(s.running))
	j.completion = s.sim.Schedule(service, evCompletion, id)
	//lint:allow hotpath amortized growth to the peak number of running threads
	s.running = append(s.running, id)

	if !s.cfg.DisableGC {
		s.heapMB -= s.cfg.AllocMB
		if s.heapMB < s.cfg.GCThresholdMB && !s.gcActive {
			s.startGC()
		}
	}
}

// startGC is paper step 6: a full collection stalls every running thread
// (including the one whose allocation tripped it) for GCPause seconds;
// when it finishes the heap is whole again.
func (s *station) startGC() {
	s.gcs++
	s.gcActive = true
	s.virtualAge += s.cfg.GCPause
	if s.met != nil {
		s.met.gcStalls.Inc()
	}
	if s.jw != nil {
		s.jw.GCStart(s.sim.Now(), s.heapMB)
	}
	s.delayRunning(s.cfg.GCPause)
	s.gcEnd = s.sim.Schedule(s.cfg.GCPause, evGCEnd, s.host)
}

// endGC finishes the stall: the heap is whole again (unless the GC is
// leaky) and queued threads may start.
func (s *station) endGC() {
	s.gcActive = false
	s.gcEnd = des.Handle{}
	if !s.cfg.LeakyGC {
		s.heapMB = s.cfg.HeapMB
	}
	if s.jw != nil {
		s.jw.GCEnd(s.sim.Now(), s.heapMB)
	}
	s.admit()
}

// delayRunning pushes every running thread's completion back by d.
func (s *station) delayRunning(d float64) {
	for _, id := range s.running {
		h := s.jobs.jobs[id].completion
		s.sim.Reschedule(h, s.sim.Time(h)+d)
	}
}

// complete is paper step 7: free the CPU and the job, and return its
// response time. The owner handles the response time and then calls
// admit, so a rejuvenation it performs clears the queue before the next
// admission.
func (s *station) complete(id int32) float64 {
	rt := s.sim.Now() - s.jobs.jobs[id].arrival
	s.removeRunning(id)
	s.jobs.release(id)
	s.freeCPUs++
	if s.met != nil {
		s.met.completed.Inc()
	}
	return rt
}

// admit moves queued threads onto free CPUs and refreshes the gauges.
func (s *station) admit() {
	s.tryStart()
	s.noteState()
}

// removeRunning drops id from the running set in O(1) by swapping with
// the last element.
func (s *station) removeRunning(id int32) {
	slot := s.jobs.jobs[id].slot
	last := len(s.running) - 1
	other := s.running[last]
	s.running[slot] = other
	s.jobs.jobs[other].slot = slot
	s.running = s.running[:last]
}

// rejuvenate implements the paper's rejuvenation routine on this
// station: every thread is terminated, CPU and memory queues are
// cleared, and the heap is restored. It returns the number of killed
// transactions.
func (s *station) rejuvenate() int {
	killed := s.active()
	for _, id := range s.running {
		s.sim.Cancel(s.jobs.jobs[id].completion)
		s.jobs.release(id)
	}
	for _, id := range s.queue[s.queueHead:] {
		s.jobs.release(id)
	}
	s.running = s.running[:0]
	s.queue = s.queue[:0]
	s.queueHead = 0
	s.freeCPUs = s.cfg.Servers
	s.heapMB = s.cfg.HeapMB
	s.sim.Cancel(s.gcEnd)
	s.gcEnd = des.Handle{}
	s.gcActive = false
	s.virtualAge = 0
	s.noteState()
	return killed
}

// rejuvenatePartial is the Kijima-style partial action: instead of
// killing every thread, it restores a fraction rho of the consumed heap
// and rolls the virtual age back to (1−ρ)·V, stalling running threads
// for the action's pause (they survive, delayed — exactly like a GC
// stall). rho ≥ 1 degenerates to the full rejuvenation routine. It
// returns the number of killed transactions (always 0 for a partial
// action).
func (s *station) rejuvenatePartial(rho, pause float64) int {
	if rho >= 1 {
		return s.rejuvenate()
	}
	s.heapMB += rho * (s.cfg.HeapMB - s.heapMB)
	s.virtualAge *= 1 - rho
	if pause > 0 {
		s.delayRunning(pause)
		if s.sim.Pending(s.gcEnd) {
			s.sim.Reschedule(s.gcEnd, s.sim.Time(s.gcEnd)+pause)
		}
	}
	s.noteState()
	return 0
}
