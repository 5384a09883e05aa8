package ecommerce

import (
	"fmt"

	"rejuv/internal/core"
	"rejuv/internal/metrics"
)

// stationMetrics holds the per-station instruments; nil on
// uninstrumented stations so the simulation hot path pays one pointer
// test per update.
type stationMetrics struct {
	queueLen  *metrics.Gauge
	active    *metrics.Gauge
	heapMB    *metrics.Gauge
	gcActive  *metrics.Gauge
	gcStalls  *metrics.Counter
	completed *metrics.Counter
}

// newStationMetrics registers the station series in reg with the given
// extra labels (a cluster would label by host; the single-host model
// attaches none).
func newStationMetrics(reg *metrics.Registry, labels ...metrics.Label) *stationMetrics {
	return &stationMetrics{
		queueLen: reg.Gauge("sim_queue_length",
			"threads waiting for a CPU", labels...),
		active: reg.Gauge("sim_active_threads",
			"threads in the system (queued + running), the paper's parallelism count", labels...),
		heapMB: reg.Gauge("sim_heap_mb",
			"remaining JVM heap in MB", labels...),
		gcActive: reg.Gauge("sim_gc_active",
			"1 while a stop-the-world full GC stalls the station", labels...),
		gcStalls: reg.Counter("sim_gc_stalls_total",
			"full garbage collections", labels...),
		completed: reg.Counter("sim_transactions_completed_total",
			"transactions that finished service", labels...),
	}
}

// update refreshes the station gauges; called after every state change
// that moves threads or memory.
func (sm *stationMetrics) update(s *station) {
	sm.queueLen.SetInt(s.queueLen())
	sm.active.SetInt(s.active())
	sm.heapMB.Set(s.heapMB)
	if s.gcActive {
		sm.gcActive.Set(1)
	} else {
		sm.gcActive.Set(0)
	}
}

// noteState refreshes the station gauges when instrumented; a no-op
// otherwise.
func (s *station) noteState() {
	if s.met != nil {
		s.met.update(s)
	}
}

// modelMetrics holds the model-level instruments fed from completion and
// rejuvenation events.
type modelMetrics struct {
	rt            *metrics.Histogram
	rejuvenations *metrics.Counter
	lost          *metrics.Counter
	bucketLevel   *metrics.Gauge
	bucketFill    *metrics.Gauge
	sampleSize    *metrics.Gauge
	target        *metrics.Gauge
}

// Instrument publishes the model's simulation-time series through reg:
// station occupancy (sim_queue_length, sim_active_threads, sim_heap_mb,
// sim_gc_active, sim_gc_stalls_total), transaction flow
// (sim_transactions_completed_total, sim_transactions_lost_total,
// sim_rejuvenations_total), a response-time histogram
// (sim_response_time_seconds), detector internals when the detector
// implements core.Instrumented (sim_detector_bucket_level,
// sim_detector_bucket_fill, sim_detector_sample_size,
// sim_detector_target), and the DES kernel counters (see
// des.Simulator.Instrument). Call it before Run; combined with Tick the
// registry can be dumped on a fixed virtual-time grid, which is how
// cmd/rejuvsim -metrics produces its JSON-lines series.
func (m *Model) Instrument(reg *metrics.Registry) {
	m.sim.Instrument(reg)
	m.st.met = newStationMetrics(reg)
	m.st.met.update(m.st)
	m.met = &modelMetrics{
		rt: reg.Histogram("sim_response_time_seconds",
			"response times of completed transactions", metrics.DefLatencyBuckets),
		rejuvenations: reg.Counter("sim_rejuvenations_total",
			"rejuvenation events"),
		lost: reg.Counter("sim_transactions_lost_total",
			"transactions killed by rejuvenation"),
		bucketLevel: reg.Gauge("sim_detector_bucket_level",
			"detector bucket pointer N"),
		bucketFill: reg.Gauge("sim_detector_bucket_fill",
			"detector ball count d"),
		sampleSize: reg.Gauge("sim_detector_sample_size",
			"detector sample size n in effect"),
		target: reg.Gauge("sim_detector_target",
			"detector trigger threshold"),
	}
	m.publishDetector()
}

// publishDetector refreshes the detector gauges from its internals.
func (m *Model) publishDetector() {
	if m.met == nil {
		return
	}
	in, ok := m.detector.(core.Instrumented)
	if !ok {
		return
	}
	snap := in.Internals()
	m.met.bucketLevel.SetInt(snap.Level)
	m.met.bucketFill.SetInt(snap.Fill)
	m.met.sampleSize.SetInt(snap.SampleSize)
	m.met.target.Set(snap.Target)
}

// Tick arranges for fn to run every interval seconds of virtual time
// while the replication runs, first at time interval. Register ticks
// before Run; rejuvsim uses one to dump the metrics registry on a fixed
// grid.
func (m *Model) Tick(interval float64, fn func(simTime float64)) error {
	if m.ran {
		return fmt.Errorf("ecommerce: Tick must be registered before Run")
	}
	if !(interval > 0) { // rejects NaN too
		return fmt.Errorf("ecommerce: tick interval must be positive, got %v", interval)
	}
	m.ticks = append(m.ticks, tick{interval: interval, fn: fn})
	return nil
}

// tick is one registered periodic callback.
type tick struct {
	interval float64
	fn       func(simTime float64)
}
