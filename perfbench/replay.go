package main

import (
	"bytes"
	"fmt"
	"hash"
	"hash/crc64"
	"runtime"
	"time"

	"rejuv"
	"rejuv/internal/core"
	"rejuv/internal/fleet"
	"rejuv/internal/xrand"
)

// The record-replay workload: each op records one segment through a
// fully instrumented Monitor and through a journaled fleet, then
// verifies both journals by replay.
const (
	segmentObs    = 16384
	blockObs      = 4096
	replayStreams = 1000
	traceCapacity = 1024
	// The flip fault inverts the decision of detector call flipAtCall
	// in op flipOp (the warm-up op is op 1).
	flipAtCall = 1000
	flipOp     = 3
)

// replayBaseline is the baseline of every detector in the workload.
var replayBaseline = core.Baseline{Mean: 5, StdDev: 1}

// sraa253 builds the workload's detector, SRAA with n=2, K=5, D=3.
func sraa253() (rejuv.Detector, error) {
	return rejuv.NewSRAA(rejuv.SRAAConfig{SampleSize: 2, Buckets: 5, Depth: 3, Baseline: replayBaseline})
}

// replayClass is the one stream class of the journaled fleet.
var replayClass = rejuv.StreamClass{Name: "sraa-2-5-3", Family: fleet.FamilySRAA,
	SampleSize: 2, Buckets: 5, Depth: 3, Baseline: replayBaseline}

type recordReplay struct {
	opt  options
	rng  *xrand.Rand
	seg  []float64
	vt   int64
	coll *rejuv.Collector
	tl   *rejuv.TraceLog

	monBuf, fleetBuf bytes.Buffer
	batch            []rejuv.StreamObs
	tally            observeTally
	ops              int
	h                hash.Hash64

	// Traced-run counters.
	obs, monRecords, fleetRecords, monBytes, fleetBytes uint64
	replayRecords, replayAllocs                         uint64
}

func newRecordReplay(opt options) (workload, error) {
	r := &recordReplay{
		opt:   opt,
		rng:   xrand.NewStream(opt.seed, 2),
		seg:   make([]float64, segmentObs),
		coll:  rejuv.NewCollector(rejuv.NewRegistry()),
		tl:    rejuv.NewTraceLog(traceCapacity),
		batch: make([]rejuv.StreamObs, 0, blockObs),
		h:     crc64.New(crc64.MakeTable(crc64.ECMA)),
	}
	return r, nil
}

func (r *recordReplay) now() time.Time {
	r.vt += int64(time.Millisecond)
	return time.Unix(0, r.vt)
}

// prepare folds the previous op's journals into the digest and draws
// the next segment: uniform noise around the baseline, with an aging
// episode (a +4 step and a ramp) in every fourth block.
func (r *recordReplay) prepare() {
	if r.ops > 0 {
		_, _ = r.h.Write(r.monBuf.Bytes()) // hash.Hash writes never fail
		_, _ = r.h.Write(r.fleetBuf.Bytes())
	}
	for i := range r.seg {
		v := 4 + 2*r.rng.Float64()
		if i/blockObs%4 == 3 {
			v += 4 + 0.001*float64(i%blockObs)
		}
		r.seg[i] = v
	}
}

func (r *recordReplay) op() (int64, error) {
	r.ops++
	tr := r.opt.tracer
	r.tally.opCalls, r.tally.flipAt = 0, 0
	if r.opt.faults.flipDecision && r.ops == flipOp {
		r.tally.flipAt = flipAtCall
	}

	// Single-stream path: Monitor with every sink attached.
	r.monBuf.Reset()
	mjw := rejuv.NewJournalWriter(&r.monBuf, rejuv.JournalMeta{CreatedBy: "perfbench", Detector: "SRAA(2,5,3)", Seed: r.opt.seed})
	det, err := sraa253()
	if err != nil {
		return 0, err
	}
	if tr != nil || r.opt.faults.flipDecision {
		det = decorate(det, &r.tally)
	}
	mon, err := rejuv.NewMonitor(rejuv.MonitorConfig{
		Detector:  det,
		OnTrigger: func(rejuv.Trigger) {},
		Now:       r.now,
		Collector: r.coll,
		Trace:     r.tl,
		Journal:   mjw,
	})
	if err != nil {
		return 0, err
	}
	for b := 0; b < segmentObs; b += blockObs {
		s := tr.begin("rejuv.observe", -1)
		for _, v := range r.seg[b : b+blockObs] {
			mon.Observe(v)
		}
		tr.end(s)
	}
	if err := mjw.Err(); err != nil {
		return 0, fmt.Errorf("monitor journal: %w", err)
	}

	// Stream-kind path: the same segment spread over a journaled fleet.
	r.fleetBuf.Reset()
	fjw := rejuv.NewJournalWriter(&r.fleetBuf, rejuv.JournalMeta{CreatedBy: "perfbench", Detector: replayClass.Name, Seed: r.opt.seed})
	eng, err := rejuv.NewFleet(rejuv.FleetConfig{
		Classes:    []rejuv.StreamClass{replayClass},
		Shards:     4,
		QueueDepth: segmentObs,
		Now:        r.now,
		Journal:    fjw,
	})
	if err != nil {
		return 0, err
	}
	fs := tr.begin("fleet.record", -1)
	for i := 0; i < replayStreams; i++ {
		if err := eng.OpenStream(rejuv.StreamID(i+1), replayClass.Name); err != nil {
			eng.Close()
			return 0, err
		}
	}
	for b := 0; b < segmentObs; b += blockObs {
		r.batch = r.batch[:0]
		for i, v := range r.seg[b : b+blockObs] {
			r.batch = append(r.batch, rejuv.StreamObs{Stream: rejuv.StreamID((b+i)%replayStreams + 1), Value: v})
		}
		eng.ObserveBatch(r.batch)
		for drained := false; !drained; {
			select {
			case <-eng.Triggers():
			default:
				drained = true
			}
		}
	}
	st := eng.Stats()
	eng.Close()
	tr.end(fs)
	if err := fjw.Err(); err != nil {
		return 0, fmt.Errorf("fleet journal: %w", err)
	}
	if st.DroppedTriggers != 0 || st.Observations != segmentObs {
		return 0, fmt.Errorf("fleet: %d observations counted, %d triggers dropped", st.Observations, st.DroppedTriggers)
	}

	// Read path: both replay verifiers.
	var ms0 runtime.MemStats
	if tr != nil {
		runtime.ReadMemStats(&ms0)
	}
	rs := tr.begin("journal.replay", -1)
	jr, err := rejuv.NewJournalReader(bytes.NewReader(r.monBuf.Bytes()))
	if err != nil {
		return 0, err
	}
	rep, err := rejuv.ReplayJournal(jr, sraa253)
	if err != nil {
		return 0, fmt.Errorf("monitor replay: %w", err)
	}
	frep, err := rejuv.ReplayFleetJournal(bytes.NewReader(r.fleetBuf.Bytes()), func(string) (rejuv.Detector, error) {
		return replayClass.Detector()
	})
	tr.end(rs)
	if err != nil {
		return 0, fmt.Errorf("fleet replay: %w", err)
	}
	switch {
	case !rep.Identical():
		return 0, fmt.Errorf("monitor journal replay diverged: %v", rep.Mismatch)
	case !frep.Identical():
		return 0, fmt.Errorf("fleet journal replay diverged: %v", frep.Mismatch)
	case rep.Observations != segmentObs || frep.Observations != segmentObs:
		return 0, fmt.Errorf("replayed %d and %d observations, want %d", rep.Observations, frep.Observations, segmentObs)
	}
	if tr != nil {
		var ms1 runtime.MemStats
		runtime.ReadMemStats(&ms1)
		r.replayAllocs += ms1.Mallocs - ms0.Mallocs
		r.replayRecords += mjw.Seq() + fjw.Seq()
		r.obs += segmentObs
		r.monRecords += mjw.Seq()
		r.fleetRecords += fjw.Seq()
		r.monBytes += uint64(r.monBuf.Len())
		r.fleetBytes += uint64(r.fleetBuf.Len())
	}
	return segmentObs, nil
}

func (r *recordReplay) digest() uint64 {
	h := crc64.New(crc64.MakeTable(crc64.ECMA))
	_, _ = h.Write(r.monBuf.Bytes()) // hash.Hash writes never fail
	_, _ = h.Write(r.fleetBuf.Bytes())
	return r.h.Sum64() ^ h.Sum64()
}

func (r *recordReplay) close() {}

// check has nothing left to verify: every op replayed its journals.
func (r *recordReplay) check() (int, error) { return 0, nil }

// layers reports the recorder's per-layer metrics.
func (r *recordReplay) layers(m map[string]metric) {
	if r.obs == 0 {
		return
	}
	st := r.opt.tracer.stats()
	obs := float64(r.obs)
	if s := st["rejuv.observe"]; s != nil && s.count > 0 {
		m["rejuv.observe_ns"] = metric{s.total / float64(s.count) / blockObs, "ns"}
	}
	if s := st["journal.replay"]; s != nil && s.count > 0 && r.replayRecords > 0 {
		recordsPerOp := float64(r.replayRecords) / (obs / segmentObs)
		m["journal.replay_ns_per_record"] = metric{s.total / float64(s.count) / recordsPerOp, "ns"}
	}
	m["journal.replay_allocs_per_record"] = metric{float64(r.replayAllocs) / float64(r.replayRecords), "allocs/record"}
	m["rejuv.trace_entries_per_kobs"] = metric{float64(r.tl.Total()) / obs * 1000, "1/kobs"}
	m["journal.bytes_per_obs"] = metric{float64(r.monBytes+r.fleetBytes) / (2 * obs), "B/obs"}
	m["journal.records_per_obs"] = metric{float64(r.monRecords+r.fleetRecords) / (2 * obs), "records/obs"}
	m["core.observe_ns"] = metric{r.tally.meanNs(), "ns"}
	m["core.observes_per_item"] = metric{float64(r.tally.calls) / obs, "calls/item"}
}
