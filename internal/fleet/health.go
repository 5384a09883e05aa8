package fleet

import (
	"rejuv/internal/core"
	"rejuv/internal/health"
	"rejuv/internal/streamindex"
)

// This file assembles the fleet health snapshot: the engine owns the
// per-shard sketch and exemplar state (maintained inside drainLocked,
// under the shard lock, at near-zero cost for healthy streams) and
// folds it here into the health package's presentation types.

// HealthSnapshot assembles one consistent fleet health view: the top-K
// most-aged streams merged across the per-shard sketches, the
// fleet-wide bucket-level histogram with exemplars, per-class
// detection statistics, trigger-queue state and the process's own
// runtime telemetry (also mirrored into the registry's fleet_self_*
// gauges).
//
// Each shard is locked briefly while its slots are scanned; shards are
// visited in order, so concurrent ingestion can interleave between
// shards but never within one. Safe for concurrent use.
func (e *Engine) HealthSnapshot() health.Snapshot {
	now := e.cfg.Now()
	snap := health.Snapshot{NowNanos: now.UnixNano()}

	// The committed-baseline pairs live on the ordered output side, so
	// borrow outMu briefly; the counters themselves are atomic.
	e.outMu.Lock()
	base := append([]core.Baseline(nil), e.lastBase...)
	e.outMu.Unlock()

	snap.Classes = make([]health.ClassHealth, len(e.classes))
	for i := range e.classes {
		snap.Classes[i] = health.ClassHealth{
			Name:         e.classes[i].cfg.Name,
			Observations: e.obsTotal[i].Value(),
			Triggers:     e.trigTotal[i].Value(),
			Suppressed:   e.suppTotal[i].Value(),
			Rejected:     e.rejTotal[i].Value(),
			Rebaselined:  e.rebTotal[i].Value(),
			BaselineMean: base[i].Mean,
			BaselineSD:   base[i].StdDev,
		}
	}

	// Per-level aggregation across shards. Level values beyond maxLvl
	// cannot occur (the kernel's bucket step keeps the level below K),
	// but clamp anyway so a future detector family cannot index out of
	// bounds.
	counts := make([]int, e.maxLvl+1)
	fills := make([]int64, e.maxLvl+1)
	ex := make([]exemplar, e.maxLvl+1)

	var entries []health.StreamHealth
	var scratch []health.SketchEntry
	for si := range e.shards {
		s := &e.shards[si]
		s.mu.Lock()
		for slot := range s.live {
			if !s.live[slot] {
				continue
			}
			snap.OpenStreams++
			snap.Classes[s.cls[slot]].Open++
			st := &s.det[slot]
			lvl := min(st.Level(), e.maxLvl)
			counts[lvl]++
			fills[lvl] += int64(st.Fill())
		}
		if s.sketch != nil {
			scratch = s.sketch.AppendEntries(scratch[:0])
			for _, en := range scratch {
				// Resolve the stream's live detector position under the
				// same lock, so Level/Fill are current rather than stale
				// sketch-side copies. Streams closed since their last
				// signal are dropped.
				slot := s.index.Lookup(en.ID, streamindex.Mix(en.ID))
				if slot < 0 {
					continue
				}
				entries = append(entries, health.StreamHealth{
					Stream:        en.ID,
					Class:         e.classes[s.cls[slot]].cfg.Name,
					Level:         s.det[slot].Level(),
					Fill:          s.det[slot].Fill(),
					Count:         en.Count,
					Err:           en.Err,
					LastMean:      en.LastMean,
					LastSeenNanos: en.LastNanos,
				})
			}
			// Keep the most recent exemplar per level across shards.
			for lvl := 1; lvl < len(s.ex); lvl++ {
				if x := s.ex[lvl]; x.set && (!ex[lvl].set || x.Nanos > ex[lvl].Nanos) {
					ex[lvl] = x
				}
			}
		}
		s.mu.Unlock()
	}

	for lvl := 0; lvl <= e.maxLvl; lvl++ {
		if counts[lvl] == 0 {
			continue
		}
		lb := health.LevelBucket{
			Level:    lvl,
			Streams:  counts[lvl],
			MeanFill: float64(fills[lvl]) / float64(counts[lvl]),
		}
		if ex[lvl].set {
			x := ex[lvl].Exemplar
			lb.Exemplar = &x
		}
		snap.Levels = append(snap.Levels, lb)
	}

	snap.Top = health.TopK(entries, e.healthK)
	snap.Queue = health.QueueHealth{
		Depth:    len(e.trigs),
		Capacity: cap(e.trigs),
		Dropped:  e.dropTotal.Value(),
	}
	snap.Stalls = e.stallTotal.Value()
	snap.Self = health.ReadSelf()
	e.selfGauges.Update(snap.Self)
	return snap
}
