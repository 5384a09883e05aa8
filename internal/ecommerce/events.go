package ecommerce

import "rejuv/internal/des"

// Event kinds shared by Model and Cluster. Each owner installs one
// dispatch function that switches on them; the comment names what the
// event's argument carries.
const (
	evArrival              des.Kind = iota // next Poisson arrival
	evCompletion                           // service completion; arg: job id
	evGCEnd                                // end of a full-GC stall; arg: host
	evPauseEnd                             // end of a Model rejuvenation pause
	evBurstToggle                          // on/off burst phase change
	evWorkloadPhase                        // workload-shape phase boundary
	evPeriodicRejuvenation                 // time-based rejuvenation
	evTick                                 // periodic callback; arg: index into Model.ticks
	evGovernorWake                         // Cluster governor re-evaluation
	evHostFinish                           // Cluster host back in service; arg: host
)

// job is one transaction moving through the system.
type job struct {
	arrival    float64
	completion des.Handle // zero while queued
	slot       int32      // index in station.running, -1 while queued
	host       int32      // cluster host index, 0 on a single host
	next       int32      // free-list link while released
}

// noJob terminates the job free list.
const noJob int32 = -1

// jobSlab stores the jobs of one owner by value, shared by all its
// stations, so the int32 id carried by a completion event finds its job
// without a pointer. Released ids thread an intrusive free list and are
// reused before the slab grows.
type jobSlab struct {
	jobs []job
	free int32 // head of the free list, noJob when empty
}

func newJobSlab() *jobSlab { return &jobSlab{free: noJob} }

// alloc returns the id of a fresh job that arrived at the given time
// on the given host.
func (p *jobSlab) alloc(arrival float64, host int) int32 {
	j := job{arrival: arrival, slot: -1, host: int32(host)}
	if id := p.free; id != noJob {
		p.free = p.jobs[id].next
		p.jobs[id] = j
		return id
	}
	//lint:allow hotpath amortized growth to the peak number of transactions in the system; released ids are reused
	p.jobs = append(p.jobs, j)
	return int32(len(p.jobs) - 1)
}

// release returns id to the free list.
func (p *jobSlab) release(id int32) {
	p.jobs[id] = job{next: p.free}
	p.free = id
}
