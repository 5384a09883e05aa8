package des

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// firing is one event as the test dispatcher saw it.
type firing struct {
	at   float64
	kind Kind
	arg  int32
}

// recorder is the test owner: it installs itself as the simulator's
// dispatch, records every firing, and runs an optional action so tests
// can schedule follow-ups or stop the loop from inside an event.
type recorder struct {
	sim   *Simulator
	fired []firing
	on    func(kind Kind, arg int32)
}

func newRecorder() *recorder {
	r := &recorder{}
	r.sim = New(r.dispatch)
	return r
}

func (r *recorder) dispatch(kind Kind, arg int32) {
	r.fired = append(r.fired, firing{r.sim.Now(), kind, arg})
	if r.on != nil {
		r.on(kind, arg)
	}
}

// times returns the firing times in order.
func (r *recorder) times() []float64 {
	ts := make([]float64, len(r.fired))
	for i, f := range r.fired {
		ts[i] = f.at
	}
	return ts
}

// args returns the firing arguments in order.
func (r *recorder) args() []int32 {
	as := make([]int32, len(r.fired))
	for i, f := range r.fired {
		as[i] = f.arg
	}
	return as
}

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	f()
}

func TestEventsFireInTimeOrder(t *testing.T) {
	r := newRecorder()
	times := []float64{5, 1, 3, 2, 4, 2.5}
	for i, at := range times {
		r.sim.ScheduleAt(at, 0, int32(i))
	}
	r.sim.Run()
	if got := r.times(); !sort.Float64sAreSorted(got) || len(got) != len(times) {
		t.Fatalf("fired at %v, want all %d times sorted", got, len(times))
	}
}

func TestKindAndArgReachDispatch(t *testing.T) {
	r := newRecorder()
	r.sim.ScheduleAt(2, 7, -3)
	r.sim.ScheduleAt(1, 4, 99)
	r.sim.Run()
	want := []firing{{1, 4, 99}, {2, 7, -3}}
	if len(r.fired) != len(want) || r.fired[0] != want[0] || r.fired[1] != want[1] {
		t.Fatalf("fired %v, want %v", r.fired, want)
	}
}

func TestSameTimeEventsFireFIFO(t *testing.T) {
	r := newRecorder()
	for i := 0; i < 10; i++ {
		r.sim.ScheduleAt(1.0, 0, int32(i))
	}
	r.sim.Run()
	for i, v := range r.args() {
		if v != int32(i) {
			t.Fatalf("same-time events fired in order %v, want FIFO", r.args())
		}
	}
}

func TestScheduleRelative(t *testing.T) {
	r := newRecorder()
	r.on = func(kind Kind, _ int32) {
		if kind == 1 {
			r.sim.Schedule(3, 2, 0)
		}
	}
	r.sim.Schedule(2, 1, 0)
	r.sim.Run()
	if len(r.fired) != 2 || r.fired[1].at != 5 {
		t.Fatalf("nested relative schedule fired %v, want the follow-up at 5", r.fired)
	}
}

func TestCancelPreventsFiring(t *testing.T) {
	r := newRecorder()
	h := r.sim.ScheduleAt(1, 0, 0)
	if !r.sim.Pending(h) {
		t.Fatal("scheduled event not pending")
	}
	r.sim.Cancel(h)
	r.sim.Run()
	if len(r.fired) != 0 {
		t.Fatal("cancelled event fired")
	}
	if r.sim.Pending(h) {
		t.Fatal("cancelled event still pending")
	}
}

func TestCancelIsIdempotent(t *testing.T) {
	r := newRecorder()
	h := r.sim.ScheduleAt(1, 0, 0)
	r.sim.Cancel(h)
	r.sim.Cancel(h) // must not panic or corrupt the heap
	r.sim.Cancel(Handle{})
	r.sim.ScheduleAt(2, 0, 0)
	if got := r.sim.Run(); got != 1 {
		t.Fatalf("fired %d events after double cancel, want 1", got)
	}
}

func TestCancelMiddleOfHeap(t *testing.T) {
	r := newRecorder()
	var hs []Handle
	for _, at := range []float64{1, 2, 3, 4, 5} {
		hs = append(hs, r.sim.ScheduleAt(at, 0, 0))
	}
	r.sim.Cancel(hs[2]) // cancel t=3
	r.sim.Run()
	got, want := r.times(), []float64{1, 2, 4, 5}
	if len(got) != len(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fired %v, want %v", got, want)
		}
	}
}

func TestReschedulePending(t *testing.T) {
	r := newRecorder()
	h := r.sim.ScheduleAt(1, 0, 0)
	r.sim.Reschedule(h, 7)
	if got := r.sim.Time(h); got != 7 {
		t.Fatalf("Time after reschedule = %v, want 7", got)
	}
	r.sim.Run()
	if len(r.fired) != 1 || r.fired[0].at != 7 {
		t.Fatalf("rescheduled event fired %v, want once at 7", r.fired)
	}
}

// TestRescheduleDeadHandlePanics pins the contract: moving an event
// that already fired or was cancelled is a modeling bug, like
// scheduling into the past.
func TestRescheduleDeadHandlePanics(t *testing.T) {
	r := newRecorder()
	cancelled := r.sim.ScheduleAt(1, 0, 0)
	r.sim.Cancel(cancelled)
	mustPanic(t, "Reschedule of a cancelled event", func() { r.sim.Reschedule(cancelled, 2) })

	fired := r.sim.ScheduleAt(1, 0, 0)
	r.sim.Run()
	mustPanic(t, "Reschedule of a fired event", func() { r.sim.Reschedule(fired, 2) })
	mustPanic(t, "Reschedule of the zero handle", func() { r.sim.Reschedule(Handle{}, 2) })
	if r.sim.Len() != 0 {
		t.Fatalf("a refused Reschedule left %d events queued", r.sim.Len())
	}
}

func TestRescheduleKeepsOrder(t *testing.T) {
	r := newRecorder()
	a := r.sim.ScheduleAt(1, 0, 'a')
	r.sim.ScheduleAt(2, 0, 'b')
	r.sim.Reschedule(a, 3) // a moves after b
	r.sim.Run()
	if got := r.args(); len(got) != 2 || got[0] != 'b' || got[1] != 'a' {
		t.Fatalf("order after reschedule = %q, want [b a]", got)
	}
}

// TestStaleHandleIsInert recycles a slot and checks that the old
// handle cannot observe or disturb the event now living in it.
func TestStaleHandleIsInert(t *testing.T) {
	for _, retire := range []string{"fire", "cancel"} {
		r := newRecorder()
		old := r.sim.ScheduleAt(1, 0, 1)
		if retire == "fire" {
			r.sim.Step()
		} else {
			r.sim.Cancel(old)
		}
		fresh := r.sim.ScheduleAt(5, 0, 2)
		if fresh.slot != old.slot {
			t.Fatalf("%s: new event took slot %d, want recycled slot %d", retire, fresh.slot, old.slot)
		}
		if r.sim.Pending(old) {
			t.Fatalf("%s: stale handle reports pending", retire)
		}
		r.sim.Cancel(old)
		if !r.sim.Pending(fresh) || r.sim.Len() != 1 {
			t.Fatalf("%s: Cancel through a stale handle removed the slot's new event", retire)
		}
		mustPanic(t, retire+": Time of a stale handle", func() { r.sim.Time(old) })
		r.sim.Run()
		if last := r.fired[len(r.fired)-1]; last.arg != 2 || last.at != 5 {
			t.Fatalf("%s: recycled slot fired %v, want arg 2 at 5", retire, last)
		}
	}
}

func TestZeroHandleIsInert(t *testing.T) {
	r := newRecorder()
	var zero Handle
	if r.sim.Pending(zero) {
		t.Fatal("zero handle pending on an empty simulator")
	}
	r.sim.Cancel(zero)
	// Slot 0 is now live; the zero handle still must not reach it.
	h := r.sim.ScheduleAt(1, 0, 0)
	if h == zero {
		t.Fatal("a scheduled event got the zero handle")
	}
	if r.sim.Pending(zero) {
		t.Fatal("zero handle pending while slot 0 is live")
	}
	r.sim.Cancel(zero)
	if !r.sim.Pending(h) {
		t.Fatal("Cancel of the zero handle removed a live event")
	}
	mustPanic(t, "Time of the zero handle", func() { r.sim.Time(zero) })
}

func TestGenerationWrapSkipsZero(t *testing.T) {
	r := newRecorder()
	h := r.sim.ScheduleAt(1, 0, 0)
	r.sim.slab[h.slot].gen = math.MaxUint32 // as if recycled 2^32-1 times
	r.sim.Cancel(Handle{slot: h.slot, gen: math.MaxUint32})
	if g := r.sim.slab[h.slot].gen; g != 1 {
		t.Fatalf("generation after wraparound = %d, want 1 (0 is reserved for the zero handle)", g)
	}
	next := r.sim.ScheduleAt(2, 0, 0)
	if next.gen == 0 || next == (Handle{}) {
		t.Fatalf("wrapped slot handed out handle %+v", next)
	}
}

func TestStopHaltsRun(t *testing.T) {
	r := newRecorder()
	r.on = func(Kind, int32) {
		if len(r.fired) == 3 {
			r.sim.Stop()
		}
	}
	for i := 1; i <= 10; i++ {
		r.sim.ScheduleAt(float64(i), 0, 0)
	}
	if fired := r.sim.Run(); fired != 3 || len(r.fired) != 3 {
		t.Fatalf("Run fired %d events (dispatched %d), want 3", fired, len(r.fired))
	}
	// A subsequent Run resumes with the remaining events.
	if rest := r.sim.Run(); rest != 7 {
		t.Fatalf("resumed Run fired %d, want 7", rest)
	}
}

func TestScheduleInPastPanics(t *testing.T) {
	r := newRecorder()
	r.sim.ScheduleAt(5, 0, 0)
	r.sim.Run()
	mustPanic(t, "ScheduleAt in the past", func() { r.sim.ScheduleAt(1, 0, 0) })
}

func TestNegativeDelayPanics(t *testing.T) {
	mustPanic(t, "Schedule with negative delay", func() { newRecorder().sim.Schedule(-1, 0, 0) })
}

// TestRandomWorkloadFiresSorted is the kernel's property test:
// any mix of schedules, cancellations and reschedules fires exactly the
// surviving events, once each, in (time, seq) order — where seq counts
// schedules and reschedules, so a rescheduled event sorts after every
// event already queued for its new time. Times are drawn on a coarse
// grid so ties are frequent.
func TestRandomWorkloadFiresSorted(t *testing.T) {
	type ref struct {
		h    Handle
		at   float64
		seq  uint64
		id   int32
		live bool
	}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		r := newRecorder()
		var evs []*ref
		var seq uint64
		for i := 0; i < 200; i++ {
			at := float64(rng.Intn(40))
			evs = append(evs, &ref{h: r.sim.ScheduleAt(at, 0, int32(i)), at: at, seq: seq, id: int32(i), live: true})
			seq++
			e := evs[rng.Intn(len(evs))]
			switch rng.Intn(6) {
			case 0:
				r.sim.Cancel(e.h) // a no-op on an already cancelled event
				e.live = false
			case 1:
				if e.live {
					e.at = float64(rng.Intn(40))
					r.sim.Reschedule(e.h, e.at)
					e.seq = seq
					seq++
				}
			}
		}
		var want []*ref
		for _, e := range evs {
			if e.live {
				want = append(want, e)
			}
		}
		sort.Slice(want, func(i, j int) bool {
			if want[i].at != want[j].at {
				return want[i].at < want[j].at
			}
			return want[i].seq < want[j].seq
		})
		r.sim.Run()
		if len(r.fired) != len(want) {
			t.Fatalf("trial %d: fired %d events, want %d", trial, len(r.fired), len(want))
		}
		for i, f := range r.fired {
			if f.arg != want[i].id || f.at != want[i].at {
				t.Fatalf("trial %d: firing %d was event %d at %v, want event %d at %v",
					trial, i, f.arg, f.at, want[i].id, want[i].at)
			}
		}
	}
}

func TestStepOnEmptyQueue(t *testing.T) {
	if New(nil).Step() {
		t.Fatal("Step on empty queue returned true")
	}
}

// TestScheduleStepDoesNotAllocate pins the kernel's allocation contract:
// once the slab and heap have grown, schedule, reschedule, cancel and
// fire reuse slots and allocate nothing, for heap and lane entries
// alike. Kind 2 has a lane.
func TestScheduleStepDoesNotAllocate(t *testing.T) {
	sim := NewLaned(func(Kind, int32) {}, 2)
	for i := 0; i < 64; i++ {
		sim.Schedule(float64(i), 0, 0)
	}
	for sim.Step() {
	}
	allocs := testing.AllocsPerRun(1000, func() {
		a := sim.Schedule(1, 0, 0)
		b := sim.Schedule(2, 1, 0)
		sim.Reschedule(a, sim.Now()+3)
		sim.Cancel(b)
		sim.Step()
		c := sim.Schedule(0.5, 2, 0) // takes the lane
		sim.Schedule(4, 2, 0)        // lane taken: goes to the heap
		sim.Cancel(c)
		d := sim.Schedule(1.5, 2, 0) // takes the freed lane
		sim.Reschedule(d, sim.Now()+2)
		sim.Step()
		sim.Step()
	})
	if allocs != 0 {
		t.Fatalf("schedule/reschedule/cancel/step allocated %v times per cycle, want 0", allocs)
	}
	if sim.Len() != 0 {
		t.Fatalf("%d events left pending after balanced cycles", sim.Len())
	}
	if len(sim.slab) > 64 {
		t.Fatalf("slab grew to %d slots for at most 64 pending events", len(sim.slab))
	}
}
