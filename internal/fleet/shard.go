package fleet

import (
	"fmt"
	"sync"

	"rejuv/internal/core"
	"rejuv/internal/health"
	"rejuv/internal/streamindex"
)

// shard owns one stripe of the fleet's detector state, laid out as
// parallel slices indexed by slot, so the drain loop touches a handful
// of adjacent arrays instead of chasing a pointer per stream.
// Everything below mu is guarded by it; slots of closed streams are
// recycled through the free list so churn does not grow the arrays.
type shard struct {
	mu sync.Mutex

	index  streamindex.Index // open stream id -> slot; guarded by mu
	free   []int32           // recycled slots; guarded by mu
	opened int               // live slot count; guarded by mu

	// Parallel per-slot detector state.
	ids   []StreamID          // stream id of each slot; guarded by mu
	cls   []int32             // class index of each slot; guarded by mu
	live  []bool              // slot occupancy; guarded by mu
	obs   []uint64            // observations consumed by the stream; guarded by mu
	det   []core.State        // kernel state: sample block and bucket counter; guarded by mu
	hyg   []core.HygieneState // per-stream hygiene memory; guarded by mu
	cool  []core.Cooldown     // per-stream trigger cooldown; guarded by mu
	dog   []core.Watchdog     // per-stream staleness watchdog; guarded by mu
	shift []core.ShiftState   // per-stream workload-shift layer (shift classes); guarded by mu

	// Health observability state, nil/empty when Config.HealthTopK is
	// negative. The sketch tallies the shard's aging signals; ex holds
	// one exemplar per bucket level (the last stream evaluated at that
	// level, with its sample mean and capture time), indexed by level.
	sketch *health.Sketch // top-K aging sketch; guarded by mu
	ex     []exemplar     // exemplar per level; guarded by mu
}

// exemplar is one bucket level's most recently evaluated stream; set
// reports whether the level has captured one yet.
type exemplar struct {
	health.Exemplar
	set bool
}

// open registers a stream, whose mix is h, in the shard. Callers hold
// s.mu.
//
//lint:holds mu
func (s *shard) open(id StreamID, h uint64, ci int32, c *class, cfg Config) error {
	if s.index.Lookup(uint64(id), h) >= 0 {
		return fmt.Errorf("fleet: stream %d is already open", uint64(id))
	}
	var slot int32
	if n := len(s.free); n > 0 {
		slot = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		slot = int32(len(s.ids))
		s.ids = append(s.ids, 0)
		s.cls = append(s.cls, 0)
		s.live = append(s.live, false)
		s.obs = append(s.obs, 0)
		s.det = append(s.det, core.State{})
		s.hyg = append(s.hyg, core.HygieneState{})
		s.cool = append(s.cool, core.Cooldown{})
		s.dog = append(s.dog, core.Watchdog{})
		s.shift = append(s.shift, core.ShiftState{})
	}
	s.ids[slot] = id
	s.cls[slot] = ci
	s.live[slot] = true
	s.obs[slot] = 0
	s.det[slot] = c.plan.Start()
	s.hyg[slot] = core.HygieneState{}
	s.cool[slot] = core.NewCooldown(cfg.Cooldown)
	s.dog[slot] = core.NewWatchdog(cfg.MaxSilence)
	s.shift[slot] = core.NewShiftState(c.cfg.Baseline)
	s.index.Insert(uint64(id), h, slot)
	s.opened++
	return nil
}

// close removes a stream, whose mix is h, from the shard, recycling its
// slot. Callers hold s.mu.
//
//lint:holds mu
func (s *shard) close(id StreamID, h uint64) error {
	i := s.index.Remove(uint64(id), h)
	if i < 0 {
		return fmt.Errorf("fleet: stream %d is not open", uint64(id))
	}
	s.live[i] = false
	s.free = append(s.free, i)
	s.opened--
	return nil
}

// drainLocked steps every batch item addressed to this shard through
// its stream's detector state, writing one result per item. idxs are
// indices into batch, grouped by the caller's counting sort; hash and
// res are batch-parallel (each item's mix, and its result); slots is
// scratch parallel to idxs. Callers hold s.mu, so the whole segment is
// processed under one lock acquisition.
//
// The drain runs in two passes. The first resolves every item's slot
// from the stream index (-1 for a stream that is not open); the lookups
// are independent, so their cache misses overlap instead of queuing
// behind detector work. The index changes only in open and close, so
// resolving the segment up front sees exactly what per-item lookups
// would. The second pass steps the detectors.
//
// This is the cost the fleet pays per observation: one index probe,
// array reads and writes, and one step of the core kernel
// (core.State.Add, then core.Plan.Decide on a completed block) against
// the class baseline or the stream's re-estimated one. It must never
// allocate — the hotpath contract below is enforced by rejuvlint across
// everything reachable from here and pinned at runtime by
// TestObserveBatchDoesNotAllocate.
//
//lint:hotpath
//lint:holds mu
func (s *shard) drainLocked(classes []class, hygienePolicy core.Hygiene, nowNanos int64, batch []StreamObs, hash []uint64, idxs, slots []int32, res []result) {
	for k, bi := range idxs {
		slots[k] = s.index.Lookup(uint64(batch[bi].Stream), hash[bi])
	}
	for k, bi := range idxs {
		o := &batch[bi]
		r := &res[bi]
		*r = result{}
		i := slots[k]
		if i < 0 {
			r.flags = resUnknown
			continue
		}
		s.obs[i]++
		r.classIdx = s.cls[i]
		r.obs = s.obs[i]
		s.dog[i].Feed(nowNanos)
		// The step is filled field by field, as core.Feed fills its own,
		// and stays zero where the item stops short of it.
		step := &r.step
		v, admitted, intercepted := s.hyg[i].Admit(hygienePolicy, o.Value)
		step.Value, step.Admitted, step.Intercepted = v, admitted, intercepted
		if !admitted {
			continue
		}

		c := &classes[s.cls[i]]
		st := &s.det[i]
		base := c.cfg.Baseline
		if c.shift {
			// The workload-shift layer steps before the sample block,
			// exactly as core.Rebase steps before its wrapped detector:
			// relearning observations never reach detector state, and a
			// committed rebaseline restarts it at Plan.Start, as Rebase
			// restarts its inner detector at the new baseline.
			switch s.shift[i].Step(c.shiftCfg, v) {
			case core.ShiftRelearning:
				continue
			case core.ShiftRebaselined:
				*st = c.plan.Start()
				step.Rebased, step.Baseline = true, s.shift[i].Base
				continue
			}
			base = s.shift[i].Base
		}

		mean, done := st.Add(v)
		if !done {
			continue
		}
		d := &step.Decision
		c.plan.Decide(st, base, mean, d)
		r.sampleSize = int32(st.SampleSize())
		if d.Triggered && c.shift {
			// Rejuvenation restores capacity without moving the
			// workload: a trigger releases the aging latch, exactly as
			// core.Rebase does.
			s.shift[i].NoteTrigger()
		}
		if d.Triggered {
			if s.cool[i].Active(nowNanos) {
				r.flags |= resSuppressed
			} else {
				s.cool[i].Open(nowNanos)
			}
		}

		// Health maintenance, still under the shard lock. Aging signals
		// (a trigger, a raised bucket level, a target exceedance) feed
		// the top-K sketch; healthy streams pay one nil check and one
		// comparison. The exemplars keep the last stream evaluated
		// at each raised level, so the level histogram can point at a
		// concrete journal-greppable stream.
		if s.sketch != nil {
			lvl := st.Level()
			if d.Triggered || lvl > 0 || mean > d.Target {
				s.sketch.Update(uint64(o.Stream), mean, nowNanos)
			}
			if lvl > 0 && lvl < len(s.ex) {
				s.ex[lvl] = exemplar{health.Exemplar{Stream: uint64(o.Stream), Value: mean, Nanos: nowNanos}, true}
			}
		}
	}
}
