// Package des implements a discrete-event simulation kernel: a virtual
// clock, an allocation-free cancellable event queue, and a run loop. It
// is the substrate for every simulator in this repository.
//
// An event is a (Kind, arg) pair scheduled at an absolute or relative
// virtual time. The simulator's owner installs one Dispatch function
// and switches on the kind when an event fires, so scheduling captures
// no closure. Events live by value in a slab whose free slots thread an
// intrusive free list. The queue is a binary heap of slot indices
// ordered by (time, seq), plus one lane: an owner built with NewLaned
// names a kind of which it usually keeps at most one event pending (the
// next Poisson arrival, say), and while the lane is empty the next event
// of that kind waits there instead of in the heap, so it costs no sift.
// Step fires the lesser of the heap top and the lane entry by the same
// (time, seq) key, so the lane never changes the firing order. Once the
// slab and heap have grown to the peak number of pending events, neither
// scheduling nor firing allocates.
//
// Scheduling returns a generation-checked Handle that can be cancelled
// or rescheduled, which the e-commerce model uses to push back in-flight
// service completions when a garbage-collection stall occurs. A handle
// goes stale when its event fires or is cancelled; stale handles and
// the zero Handle are inert.
package des

import (
	"context"
	"fmt"
	"math"
	"runtime/pprof"

	"rejuv/internal/journal"
	"rejuv/internal/num"
)

// Kind tells the owner's Dispatch what a fired event means. The kernel
// never interprets it.
type Kind int32

// Dispatch is the owner's single entry point for fired events: it
// receives the kind and argument the event was scheduled with, after
// the clock has advanced to the event's time.
type Dispatch func(kind Kind, arg int32)

// Handle refers to one scheduled event. The zero value refers to no
// event. A handle stays valid until its event fires or is cancelled;
// after that its slot may be reused, and the generation check makes the
// old handle inert.
type Handle struct {
	slot int32
	gen  uint32
}

// event is one slab slot. While queued in the heap, pos is its index
// there; while in the lane, pos is negative; while free, next links it
// into the free list.
type event struct {
	time float64
	seq  uint64 // tie-breaker: FIFO among same-time events
	pos  int32
	next int32
	gen  uint32 // bumped on every release, never 0
	kind Kind
	arg  int32
}

// noSlot terminates the free list, marks an empty lane and is the pos
// of the lane entry.
const noSlot int32 = -1

// noLane is the lane slot of a simulator built without a lane; as it is
// not noSlot, no event ever takes the lane.
const noLane int32 = -2

// Simulator owns the virtual clock and the event queue. Build it with
// New.
type Simulator struct {
	now      float64
	seq      uint64
	slab     []event
	free     int32   // head of the free-slot list, noSlot when empty
	heap     []int32 // slot indices, a min-heap by (time, seq)
	lane     Kind    // the kind NewLaned keeps out of the heap
	laneSlot int32   // the lane entry's slot; noSlot while empty, noLane without a lane
	dispatch Dispatch
	stopped  bool
	met      *simMetrics     // nil unless Instrument was called
	jw       *journal.Writer // nil unless Journal was called
}

// New returns a simulator at virtual time zero with an empty queue that
// hands every fired event to d.
func New(d Dispatch) *Simulator {
	return &Simulator{free: noSlot, laneSlot: noLane, dispatch: d}
}

// NewLaned is New with a lane for events of the given kind: while no
// event of that kind waits in the lane, the next one scheduled does,
// outside the heap; any further one goes to the heap. Name the kind the
// owner keeps at most one of pending, such as its next arrival. The
// lane only saves heap work and never changes which event fires next.
func NewLaned(d Dispatch, lane Kind) *Simulator {
	s := New(d)
	s.lane, s.laneSlot = lane, noSlot
	return s
}

// Now returns the current virtual time.
func (s *Simulator) Now() float64 { return s.now }

// Len returns the number of pending events, in the heap and the lane.
func (s *Simulator) Len() int {
	if s.laneSlot >= 0 {
		return len(s.heap) + 1
	}
	return len(s.heap)
}

// ScheduleAt schedules an event of the given kind and argument at
// absolute virtual time t. It panics if t precedes the current time or
// is NaN, since scheduling into the past is always a modeling bug.
func (s *Simulator) ScheduleAt(t float64, kind Kind, arg int32) Handle {
	if math.IsNaN(t) || t < s.now {
		//lint:allow hotpath formatting the modeling-bug panic happens at most once per process
		panic(fmt.Sprintf("des: ScheduleAt(%v) before now (%v)", t, s.now))
	}
	i := s.alloc()
	e := &s.slab[i]
	e.time, e.seq, e.kind, e.arg = t, s.seq, kind, arg
	s.seq++
	s.enqueue(i)
	s.noteScheduled()
	s.journalScheduled(t)
	return Handle{slot: i, gen: e.gen}
}

// Schedule schedules an event of the given kind and argument after the
// given non-negative delay.
func (s *Simulator) Schedule(delay float64, kind Kind, arg int32) Handle {
	if math.IsNaN(delay) || delay < 0 {
		//lint:allow hotpath formatting the modeling-bug panic happens at most once per process
		panic(fmt.Sprintf("des: Schedule with negative delay %v", delay))
	}
	return s.ScheduleAt(s.now+delay, kind, arg)
}

// Pending reports whether h refers to an event that is still queued
// (not fired, not cancelled). It is false for the zero Handle.
func (s *Simulator) Pending(h Handle) bool {
	return h.gen != 0 && uint(h.slot) < uint(len(s.slab)) && s.slab[h.slot].gen == h.gen
}

// Time returns the virtual time at which the pending event h fires. It
// panics if h is not pending.
func (s *Simulator) Time(h Handle) float64 {
	if !s.Pending(h) {
		panic("des: Time of an event that is not pending")
	}
	return s.slab[h.slot].time
}

// Cancel removes a pending event from the queue. Cancelling an event
// that already fired or was already cancelled, or the zero Handle, is a
// no-op, so callers need not track event lifecycles precisely.
func (s *Simulator) Cancel(h Handle) {
	if !s.Pending(h) {
		return
	}
	s.unlink(h.slot)
	s.release(h.slot)
	s.noteCancelled()
	s.journalCancelled()
}

// Reschedule moves the pending event h to absolute time t, keeping its
// kind and argument; it takes a fresh sequence number, so it fires
// after events already scheduled for the same time. An event waiting in
// the lane stays there and needs no sift. It panics if t precedes the
// current time or if h is not pending: moving an event that already
// fired or was cancelled is a modeling bug.
func (s *Simulator) Reschedule(h Handle, t float64) {
	if math.IsNaN(t) || t < s.now {
		//lint:allow hotpath formatting the modeling-bug panic happens at most once per process
		panic(fmt.Sprintf("des: Reschedule(%v) before now (%v)", t, s.now))
	}
	if !s.Pending(h) {
		panic("des: Reschedule of an event that is not pending")
	}
	e := &s.slab[h.slot]
	e.time = t
	e.seq = s.seq
	s.seq++
	if e.pos >= 0 {
		s.fix(e.pos)
	}
}

// Stop makes the current Run call return after the executing dispatch
// completes. Pending events remain queued.
func (s *Simulator) Stop() { s.stopped = true }

// Step fires the next pending event, the lesser by (time, seq) of the
// heap top and the lane entry, advancing the clock to its time.
// It returns false when no events are pending. Step is the kernel's
// inner loop: everything it reaches (metrics, journaling) must stay
// allocation-free so event throughput is bounded by the dispatch alone.
// The event's slot is released before dispatch, so its handle is
// already stale when the owner sees the event.
//
//lint:hotpath
func (s *Simulator) Step() bool {
	i := noSlot
	if len(s.heap) > 0 {
		i = s.heap[0]
	}
	if l := s.laneSlot; l >= 0 && (i == noSlot || s.less(l, i)) {
		i = l
	}
	if i == noSlot {
		return false
	}
	e := &s.slab[i]
	if e.pos < 0 { // unlink(i) inlined for the hot path; a heap entry here is the top
		s.laneSlot = noSlot
	} else {
		s.remove(0)
	}
	if e.time < s.now {
		//lint:allow hotpath formatting the modeling-bug panic happens at most once per process
		panic(fmt.Sprintf("des: time went backwards: %v -> %v", s.now, e.time))
	}
	s.now = e.time
	kind, arg := e.kind, e.arg
	s.release(i)
	s.noteFired()
	s.journalFired()
	s.dispatch(kind, arg)
	return true
}

// eventLoopLabels tags the run loop in CPU profiles so samples inside
// Run (and everything the dispatch calls, detector evaluation included)
// can be filtered with `-tagfocus des_phase=event-loop`.
var eventLoopLabels = pprof.Labels("des_phase", "event-loop")

// Run fires events in time order until the queue drains or Stop is
// called. It returns the number of events fired.
func (s *Simulator) Run() int {
	s.stopped = false
	fired := 0
	pprof.Do(context.Background(), eventLoopLabels, func(context.Context) {
		for !s.stopped && s.Step() {
			fired++
		}
	})
	return fired
}

// alloc takes a slot off the free list, growing the slab when the list
// is empty.
func (s *Simulator) alloc() int32 {
	if i := s.free; i != noSlot {
		s.free = s.slab[i].next
		return i
	}
	//lint:allow hotpath amortized growth to the peak number of pending events; released slots are reused
	s.slab = append(s.slab, event{gen: 1})
	return int32(len(s.slab) - 1)
}

// release returns slot i to the free list and bumps its generation,
// skipping 0 so no live slot ever matches the zero Handle.
func (s *Simulator) release(i int32) {
	e := &s.slab[i]
	e.gen++
	if e.gen == 0 {
		e.gen = 1
	}
	e.next = s.free
	s.free = i
}

// less orders slots a and b by (time, seq).
func (s *Simulator) less(a, b int32) bool {
	ea, eb := &s.slab[a], &s.slab[b]
	if !num.Same(ea.time, eb.time) {
		return ea.time < eb.time
	}
	return ea.seq < eb.seq
}

// enqueue queues slot i: in the lane if it is empty and i is of its
// kind, in the heap otherwise.
func (s *Simulator) enqueue(i int32) {
	if e := &s.slab[i]; s.laneSlot == noSlot && e.kind == s.lane {
		s.laneSlot = i
		e.pos = noSlot
		return
	}
	//lint:allow hotpath amortized growth to the peak number of pending events
	s.heap = append(s.heap, i)
	s.up(int32(len(s.heap) - 1))
}

// unlink takes the queued slot i out of the lane or the heap.
func (s *Simulator) unlink(i int32) {
	if p := s.slab[i].pos; p < 0 {
		s.laneSlot = noSlot
	} else {
		s.remove(p)
	}
}

// remove deletes the heap entry at position p.
func (s *Simulator) remove(p int32) {
	last := int32(len(s.heap) - 1)
	x := s.heap[last]
	s.heap = s.heap[:last]
	if p != last {
		s.heap[p] = x
		s.fix(p)
	}
}

// fix restores heap order after the key at position p changed.
func (s *Simulator) fix(p int32) {
	if !s.down(p) {
		s.up(p)
	}
}

// up sifts the entry at position p toward the root.
func (s *Simulator) up(p int32) {
	h := s.heap
	x := h[p]
	for p > 0 {
		parent := (p - 1) / 2
		if !s.less(x, h[parent]) {
			break
		}
		h[p] = h[parent]
		s.slab[h[p]].pos = p
		p = parent
	}
	h[p] = x
	s.slab[x].pos = p
}

// down sifts the entry at position p toward the leaves and reports
// whether it moved.
func (s *Simulator) down(p int32) bool {
	h := s.heap
	n := int32(len(h))
	x := h[p]
	start := p
	for {
		c := 2*p + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && s.less(h[r], h[c]) {
			c = r
		}
		if !s.less(h[c], x) {
			break
		}
		h[p] = h[c]
		s.slab[h[p]].pos = p
		p = c
	}
	h[p] = x
	s.slab[x].pos = p
	return p > start
}
