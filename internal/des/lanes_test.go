package des

import (
	"bytes"
	"math/rand"
	"testing"

	"rejuv/internal/journal"
	"rejuv/internal/metrics"
)

// laneOwner drives one simulator of an equivalence pair. It logs every
// firing, keeps every handle it was given, and on firing an original
// event schedules a follow-up (a same-kind successor or a same-time
// tie of another kind) and sometimes cancels an earlier event, so
// handlers schedule and cancel during dispatch as the models do.
type laneOwner struct {
	sim     *Simulator
	hs      []Handle
	fired   []firing
	journal bytes.Buffer
}

// spawned marks the argument of a follow-up event; follow-ups spawn
// nothing, so every run drains.
const spawned = 1 << 20

// newLaneOwner builds an owner whose simulator has a lane for kind 0,
// or no lane if laned is false.
func newLaneOwner(laned bool) *laneOwner {
	o := &laneOwner{}
	if laned {
		o.sim = NewLaned(o.dispatch, 0)
	} else {
		o.sim = New(o.dispatch)
	}
	o.sim.Journal(journal.NewWriter(&o.journal, journal.Meta{}))
	return o
}

func (o *laneOwner) dispatch(kind Kind, arg int32) {
	o.fired = append(o.fired, firing{o.sim.Now(), kind, arg})
	if arg >= spawned {
		return
	}
	next, delay := kind, float64(arg%3)
	if arg%2 == 1 {
		next, delay = Kind(arg%4), 0
	}
	o.hs = append(o.hs, o.sim.Schedule(delay, next, arg+spawned))
	if arg%5 == 0 {
		o.sim.Cancel(o.hs[int(arg)%len(o.hs)])
	}
}

// apply performs one operation decoded from the pair (op, p); id is
// the argument a newly scheduled event carries. Times sit on a
// half-unit grid so same-time ties are common.
func (o *laneOwner) apply(op, p byte, id int32) {
	s := o.sim
	kind := Kind(p>>3) % 4
	switch op % 5 {
	case 0:
		o.hs = append(o.hs, s.ScheduleAt(s.Now()+float64(p%8), kind, id))
	case 1:
		o.hs = append(o.hs, s.Schedule(float64(p%4)/2, kind, id))
	case 2:
		if len(o.hs) > 0 {
			s.Cancel(o.hs[int(p)%len(o.hs)])
		}
	case 3:
		if len(o.hs) > 0 {
			if h := o.hs[int(p)%len(o.hs)]; s.Pending(h) {
				s.Reschedule(h, s.Now()+float64(p%8))
			}
		}
	default:
		s.Step()
	}
}

// laneCoverage counts the lane situations a program reached, so the
// deterministic test can show it exercised each of them.
type laneCoverage struct {
	laneFires, laneCancels, laneReschedules, lanedKindInHeap int
}

// runLanePair applies prog to a simulator with a lane for kind 0 and
// to one with no lane, and fails unless both fire the same
// (time, kind, arg) sequence and agree on Now, Len, Pending and Time
// after every operation. Both are drained at the end, and their kernel
// journals must be byte-identical.
func runLanePair(t *testing.T, prog []byte) laneCoverage {
	t.Helper()
	laned, plain := newLaneOwner(true), newLaneOwner(false)
	var cov laneCoverage
	for k := 0; k+1 < len(prog); k += 2 {
		op, p := prog[k], prog[k+1]
		if len(laned.hs) > 0 {
			if h := laned.hs[int(p)%len(laned.hs)]; laned.sim.Pending(h) && laned.sim.slab[h.slot].pos < 0 {
				switch op % 5 {
				case 2:
					cov.laneCancels++
				case 3:
					cov.laneReschedules++
				}
			}
		}
		if op%5 == 4 && laned.sim.laneSlot >= 0 {
			cov.laneFires++
		}
		laned.apply(op, p, int32(k))
		plain.apply(op, p, int32(k))
		for _, i := range laned.sim.heap {
			if laned.sim.slab[i].kind == 0 {
				cov.lanedKindInHeap++
				break
			}
		}
		assertSameSim(t, k/2, laned, plain)
	}
	laned.sim.Run()
	plain.sim.Run()
	assertSameSim(t, len(prog)/2, laned, plain)
	if !bytes.Equal(laned.journal.Bytes(), plain.journal.Bytes()) {
		t.Fatalf("kernel journals differ: %d bytes with a lane, %d without", laned.journal.Len(), plain.journal.Len())
	}
	return cov
}

// assertSameSim fails unless a and b have fired the same events and
// hold the same pending events at the same times.
func assertSameSim(t *testing.T, step int, a, b *laneOwner) {
	t.Helper()
	if len(a.fired) != len(b.fired) {
		t.Fatalf("after op %d: %d firings with a lane, %d without", step, len(a.fired), len(b.fired))
	}
	for i := range a.fired {
		if a.fired[i] != b.fired[i] {
			t.Fatalf("after op %d: firing %d is %v with a lane, %v without", step, i, a.fired[i], b.fired[i])
		}
	}
	if a.sim.Now() != b.sim.Now() || a.sim.Len() != b.sim.Len() || len(a.hs) != len(b.hs) {
		t.Fatalf("after op %d: now %v/%v, Len %d/%d, handles %d/%d with/without a lane",
			step, a.sim.Now(), b.sim.Now(), a.sim.Len(), b.sim.Len(), len(a.hs), len(b.hs))
	}
	for i := range a.hs {
		pa, pb := a.sim.Pending(a.hs[i]), b.sim.Pending(b.hs[i])
		if pa != pb {
			t.Fatalf("after op %d: handle %d pending %v with a lane, %v without", step, i, pa, pb)
		}
		if pa && a.sim.Time(a.hs[i]) != b.sim.Time(b.hs[i]) {
			t.Fatalf("after op %d: handle %d due at %v with a lane, %v without",
				step, i, a.sim.Time(a.hs[i]), b.sim.Time(b.hs[i]))
		}
	}
}

// TestLanesMatchHeap pins the lane contract: declaring a lane never
// changes what fires when. Random programs mix schedules, same-time
// ties, second pending events of the laned kind, cancels and reschedules
// of lane entries, and handlers that schedule and cancel during
// dispatch; the test also checks that the programs reached each of
// those lane situations.
func TestLanesMatchHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var total laneCoverage
	for trial := 0; trial < 200; trial++ {
		prog := make([]byte, 2*300)
		rng.Read(prog)
		cov := runLanePair(t, prog)
		total.laneFires += cov.laneFires
		total.laneCancels += cov.laneCancels
		total.laneReschedules += cov.laneReschedules
		total.lanedKindInHeap += cov.lanedKindInHeap
	}
	if total.laneFires == 0 || total.laneCancels == 0 || total.laneReschedules == 0 || total.lanedKindInHeap == 0 {
		t.Fatalf("programs missed a lane situation: %+v", total)
	}
}

// FuzzLanesMatchHeap runs the lane equivalence on arbitrary programs.
func FuzzLanesMatchHeap(f *testing.F) {
	f.Add([]byte{0, 0, 0, 16, 4, 0, 3, 0, 4, 0})
	f.Add([]byte{1, 0, 1, 0, 1, 16, 2, 0, 4, 0, 4, 0})
	f.Add([]byte{0, 7, 0, 23, 3, 1, 4, 0, 2, 0, 4, 0})
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 2000 {
			prog = prog[:2000]
		}
		runLanePair(t, prog)
	})
}

// TestPendingGaugeCountsLanes checks that des_pending_events counts
// lane entries as well as heap entries through schedule, cancel and
// fire.
func TestPendingGaugeCountsLanes(t *testing.T) {
	reg := metrics.NewRegistry()
	sim := NewLaned(func(Kind, int32) {}, 0)
	sim.Instrument(reg)
	gauge := reg.Gauge("des_pending_events", "")
	check := func(what string, want int) {
		t.Helper()
		if sim.Len() != want || int(gauge.Value()) != want {
			t.Fatalf("%s: Len %d, gauge %v, want %d", what, sim.Len(), gauge.Value(), want)
		}
	}
	lane := sim.Schedule(1, 0, 0)
	check("lane entry", 1)
	sim.Schedule(2, 1, 0)
	check("lane and heap entry", 2)
	sim.Schedule(3, 0, 0)
	check("second laned event, in the heap", 3)
	sim.Cancel(lane)
	check("lane entry cancelled", 2)
	sim.Schedule(0.5, 0, 0)
	sim.Step()
	check("lane entry fired", 2)
	sim.Run()
	check("drained", 0)
}
