package main

import (
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"strconv"
	"time"

	"rejuv"
	"rejuv/internal/core"
	"rejuv/internal/fleet"
	"rejuv/internal/sched"
	"rejuv/internal/xrand"
)

// The fleet-aging workload: 10 000 streams in 100 replicas of 100,
// fed round-robin in batches of 4096 on a virtual clock (one round, one
// observation per stream, is one virtual second), with the rejuvenation
// loop closed through a sched.Governor. Every setting that would
// otherwise default from the core count is pinned.
const (
	fleetStreams       = 10_000
	fleetReplicaSize   = 100
	fleetReplicas      = fleetStreams / fleetReplicaSize
	fleetGroups        = 10
	fleetBatch         = 4096
	fleetShards        = 8
	fleetQueueDepth    = 1 << 14
	fleetSnapshotEvery = 25
	// fleetMaxDown is each group's capacity budget; fleetPause the full
	// restart pause in rounds. Ten groups restart up to 2.5 replicas per
	// round against a demand of about 1.25.
	fleetMaxDown  = 1
	fleetPause    = 4
	fleetCooldown = 30 * time.Second
	// nsPerObs advances the virtual clock: a round of fleetStreams
	// observations is one second.
	nsPerObs = int64(time.Second) / fleetStreams
	// Aging: one stream per replica degrades onsetMin..onsetMin+onsetSpan
	// rounds after its replica's last restart, a +4 step then a ramp of
	// 0.1 per round.
	onsetMin  = 20
	onsetSpan = 100
	// Flash crowd on the shift class: +8 for flashLen rounds out of
	// every flashPeriod, from round flashStart.
	flashStart  = 40
	flashPeriod = 200
	flashLen    = 60
	// droppedObsOp is the op whose batch loses one observation under the
	// dropped-observation fault.
	droppedObsOp = 3
)

// fleetClasses are the three rejuvsim -fleet classes plus a
// shift-enabled SRAA class; stream i (0-based) is in class i%4.
func fleetClasses() []rejuv.StreamClass {
	base := core.Baseline{Mean: 5, StdDev: 1}
	return []rejuv.StreamClass{
		{Name: "web-sraa", Family: fleet.FamilySRAA, SampleSize: 4, Buckets: 3, Depth: 2, Baseline: base},
		{Name: "db-saraa", Family: fleet.FamilySARAA, SampleSize: 8, Buckets: 3, Depth: 2, Baseline: base},
		{Name: "cache-clta", Family: fleet.FamilyCLTA, SampleSize: 4, Quantile: 4, Baseline: base},
		{Name: "edge-sraa-shift", Family: fleet.FamilySRAA, SampleSize: 4, Buckets: 3, Depth: 2, Baseline: base,
			Shift: &core.ShiftConfig{}},
	}
}

// completion is a dispatched restart finishing at time t.
type completion struct {
	t       float64
	replica int
}

type fleetAging struct {
	opt     options
	classes []rejuv.StreamClass
	eng     *rejuv.Fleet
	gov     *sched.Governor
	rng     *xrand.Rand

	vt      int64  // virtual clock, ns
	cursor  int    // next stream index
	sent    uint64 // observations handed to ObserveBatch, by the benchmark's count
	batch   []rejuv.StreamObs
	batchN  int // observations the prepared batch stands for
	ops     int
	pending []completion // sorted by t
	trigs   []rejuv.FleetTrigger
	last    rejuv.FleetStats

	restart  []int64 // per replica: round of its last restart
	onset    []int64 // per replica: rounds after restart its aging stream degrades
	agingIdx []int   // per replica: which of its streams ages

	maxQueue int
	h        hash.Hash64
	buf      []byte
}

func newFleetAging(opt options) (workload, error) {
	f := &fleetAging{
		opt:      opt,
		classes:  fleetClasses(),
		rng:      xrand.NewStream(opt.seed, 1),
		batch:    make([]rejuv.StreamObs, 0, fleetBatch),
		restart:  make([]int64, fleetReplicas),
		onset:    make([]int64, fleetReplicas),
		agingIdx: make([]int, fleetReplicas),
		h:        fnv.New64a(),
	}
	for r := range f.onset {
		f.onset[r] = onsetMin + int64(f.rng.Float64()*onsetSpan)
		f.agingIdx[r] = int(f.rng.Float64() * fleetReplicaSize)
	}
	eng, err := rejuv.NewFleet(rejuv.FleetConfig{
		Classes:    f.classes,
		Shards:     fleetShards,
		QueueDepth: fleetQueueDepth,
		Cooldown:   fleetCooldown,
		Now:        f.now,
	})
	if err != nil {
		return nil, err
	}
	f.eng = eng
	for i := 0; i < fleetStreams; i++ {
		if err := eng.OpenStream(rejuv.StreamID(i+1), f.classes[i%len(f.classes)].Name); err != nil {
			eng.Close()
			return nil, err
		}
	}
	group := make([]int, fleetReplicas)
	for r := range group {
		group[r] = r % fleetGroups
	}
	f.gov, err = sched.New(sched.Config{
		Replicas:   fleetReplicas,
		Group:      group,
		MaxDown:    fleetMaxDown,
		QueueDepth: 2 * fleetReplicas,
		FullPause:  fleetPause,
	})
	if err != nil {
		eng.Close()
		return nil, err
	}
	return f, nil
}

func (f *fleetAging) now() time.Time { return time.Unix(0, f.vt) }

// round returns the round an observation ordinal falls in.
func round(obs uint64) int64 { return int64(obs / fleetStreams) }

// prepare builds the next batch of observations from the cursor.
func (f *fleetAging) prepare() {
	f.batch = f.batch[:0]
	for k := 0; k < fleetBatch; k++ {
		i := f.cursor
		f.cursor = (f.cursor + 1) % fleetStreams
		rd := round(f.sent + uint64(k))
		rep := i / fleetReplicaSize
		v := 4 + 2*f.rng.Float64() // healthy: uniform on [4, 6]
		if i%len(f.classes) == 3 && rd >= flashStart && (rd-flashStart)%flashPeriod < flashLen {
			v += 8
		}
		if i%fleetReplicaSize == f.agingIdx[rep] {
			if age := rd - f.restart[rep] - f.onset[rep]; age >= 0 {
				v += 4 + 0.1*float64(age)
			}
		}
		f.batch = append(f.batch, rejuv.StreamObs{Stream: rejuv.StreamID(i + 1), Value: v})
	}
	f.batchN = len(f.batch)
	if f.opt.faults.dropObs && f.ops == droppedObsOp {
		f.batch = f.batch[:len(f.batch)-1] // planted fault: one observation never arrives
	}
}

func (f *fleetAging) op() (int64, error) {
	tr := f.opt.tracer
	f.ops++
	f.vt = int64(f.sent) * nsPerObs
	b := tr.begin("fleet.batch", -1)
	f.eng.ObserveBatch(f.batch)
	tr.end(b)
	f.sent += uint64(f.batchN)
	t := float64(f.vt) / 1e9

	d := tr.begin("fleet.drain", -1)
	f.trigs = f.trigs[:0]
	for drained := false; !drained; {
		select {
		case trig := <-f.eng.Triggers():
			f.trigs = append(f.trigs, trig)
		default:
			drained = true
		}
	}
	tr.end(d)

	level := f.gov.Config().TriggerLevel
	for _, trig := range f.trigs {
		f.hashInts(0, uint64(trig.Stream), trig.ID, trig.Observations)
		replica := int(trig.Stream-1) / fleetReplicaSize
		s := tr.begin("sched.call", -1)
		out := f.gov.Request(t, replica, level, trig.Decision.Fill, 0, trig.ID)
		tr.end(s)
		if err := f.apply(out); err != nil {
			return 0, err
		}
	}
	for len(f.pending) > 0 && f.pending[0].t <= t {
		c := f.pending[0]
		f.pending = f.pending[1:]
		s := tr.begin("sched.call", -1)
		out := f.gov.Complete(c.t, c.replica, true)
		tr.end(s)
		if err := f.apply(out); err != nil {
			return 0, err
		}
	}
	if f.gov.Queued() > 0 && f.gov.NextWake(t) <= t {
		s := tr.begin("sched.call", -1)
		out := f.gov.Tick(t)
		tr.end(s)
		if err := f.apply(out); err != nil {
			return 0, err
		}
	}
	if q := f.gov.Queued(); q > f.maxQueue {
		f.maxQueue = q
	}

	if f.ops%fleetSnapshotEvery == 0 {
		s := tr.begin("health.snapshot", -1)
		snap := f.eng.HealthSnapshot()
		tr.end(s)
		if snap.OpenStreams != fleetStreams {
			return 0, fmt.Errorf("health snapshot: %d open streams, want %d", snap.OpenStreams, fleetStreams)
		}
		f.hashInts(1, uint64(len(snap.Top)), uint64(len(snap.Levels)))
	}

	st := f.eng.Stats()
	delta := st.Observations - f.last.Observations
	unknown := st.UnknownStreams - f.last.UnknownStreams
	dropped := st.DroppedTriggers - f.last.DroppedTriggers
	f.last = st
	switch {
	case delta != uint64(f.batchN):
		return 0, fmt.Errorf("op %d: fleet counted %d observations, %d were sent", f.ops, delta, f.batchN)
	case unknown != 0:
		return 0, fmt.Errorf("op %d: %d observations for unknown streams", f.ops, unknown)
	case dropped != 0:
		return 0, fmt.Errorf("op %d: %d triggers dropped", f.ops, dropped)
	}
	return int64(f.batchN), nil
}

// apply acts on governor transitions: a start schedules its completion
// after the pause; a completion churns the replica's streams (close and
// reopen, which resets their detector state and their age).
func (f *fleetAging) apply(out []sched.Transition) error {
	for _, tr := range out {
		f.hashInts(2, uint64(tr.Op), uint64(tr.Replica), math.Float64bits(tr.Time))
		switch tr.Op {
		case sched.OpStart:
			c := completion{t: tr.Time + tr.Pause, replica: tr.Replica}
			i := len(f.pending)
			for i > 0 && f.pending[i-1].t > c.t {
				i--
			}
			f.pending = append(f.pending, completion{})
			copy(f.pending[i+1:], f.pending[i:])
			f.pending[i] = c
		case sched.OpComplete:
			if err := f.churn(tr.Replica); err != nil {
				return err
			}
		}
	}
	return nil
}

// churn closes and reopens every stream of a restarted replica.
func (f *fleetAging) churn(replica int) error {
	s := f.opt.tracer.begin("fleet.churn", -1)
	defer f.opt.tracer.end(s)
	for k := 0; k < fleetReplicaSize; k++ {
		i := replica*fleetReplicaSize + k
		id := rejuv.StreamID(i + 1)
		if err := f.eng.CloseStream(id); err != nil {
			return fmt.Errorf("churn: %w", err)
		}
		if err := f.eng.OpenStream(id, f.classes[i%len(f.classes)].Name); err != nil {
			return fmt.Errorf("churn: %w", err)
		}
	}
	f.restart[replica] = round(f.sent)
	return nil
}

// hashInts folds a tagged tuple into the output digest.
func (f *fleetAging) hashInts(tag uint64, vs ...uint64) {
	f.buf = strconv.AppendUint(f.buf[:0], tag, 16)
	for _, v := range vs {
		f.buf = append(f.buf, ',')
		f.buf = strconv.AppendUint(f.buf, v, 16)
	}
	f.buf = append(f.buf, ';')
	_, _ = f.h.Write(f.buf) // hash.Hash writes never fail
}

func (f *fleetAging) digest() uint64 { return f.h.Sum64() }

func (f *fleetAging) close() { f.eng.Close() }

// check verifies the run's conservation laws: every observation sent
// was counted, none was addressed to an unknown stream, no trigger was
// dropped, the governor accounted for every request, and no group ever
// had more replicas down than its budget.
func (f *fleetAging) check() (int, error) {
	st := f.eng.Stats()
	gs := f.gov.Stats()
	switch {
	case st.Observations != f.sent:
		return 1, fmt.Errorf("fleet counted %d observations, %d were sent", st.Observations, f.sent)
	case st.UnknownStreams != 0:
		return 1, fmt.Errorf("%d observations for unknown streams", st.UnknownStreams)
	case st.DroppedTriggers != 0:
		return 1, fmt.Errorf("%d triggers dropped", st.DroppedTriggers)
	case st.OpenStreams != fleetStreams:
		return 1, fmt.Errorf("%d open streams, want %d", st.OpenStreams, fleetStreams)
	case gs.Enqueued+gs.Coalesced+gs.Saturated+gs.Refused != gs.Requests+gs.Requeues:
		return 1, fmt.Errorf("governor conservation: enqueued %d + coalesced %d + saturated %d + refused %d != requests %d + requeues %d",
			gs.Enqueued, gs.Coalesced, gs.Saturated, gs.Refused, gs.Requests, gs.Requeues)
	}
	for g := 0; g < f.gov.Groups(); g++ {
		if seen := f.gov.MaxDownSeen(g); seen > fleetMaxDown {
			return 1, fmt.Errorf("group %d had %d replicas down, budget %d", g, seen, fleetMaxDown)
		}
	}
	return 0, nil
}

// layers reports the fleet's per-layer counters.
func (f *fleetAging) layers(m map[string]metric) {
	st := f.eng.Stats()
	gs := f.gov.Stats()
	mobs := float64(st.Observations) / 1e6
	if mobs <= 0 {
		return
	}
	m["fleet.triggers_per_mobs"] = metric{float64(st.Triggers) / mobs, "1/Mobs"}
	m["fleet.suppressed_per_mobs"] = metric{float64(st.Suppressed) / mobs, "1/Mobs"}
	m["fleet.rebaselines_per_mobs"] = metric{float64(st.Rebaselines) / mobs, "1/Mobs"}
	m["fleet.dropped_triggers"] = metric{float64(st.DroppedTriggers), "count"}
	m["sched.requests_per_mobs"] = metric{float64(gs.Requests) / mobs, "1/Mobs"}
	m["sched.starts_per_mobs"] = metric{float64(gs.Starts) / mobs, "1/Mobs"}
	if gs.Requests > 0 {
		m["sched.start_ratio"] = metric{float64(gs.Starts) / float64(gs.Requests), "fraction"}
	}
	m["sched.max_queue"] = metric{float64(f.maxQueue), "count"}
	m["sched.saturated"] = metric{float64(gs.Saturated), "count"}
}
