package des

import "rejuv/internal/metrics"

// simMetrics holds the kernel's instruments; nil on uninstrumented
// simulators so the hot path pays one pointer test per operation.
type simMetrics struct {
	scheduled *metrics.Counter
	fired     *metrics.Counter
	cancelled *metrics.Counter
	queueLen  *metrics.Gauge
	simTime   *metrics.Gauge
}

// Instrument registers the kernel's event-loop series in reg and
// updates them as the simulation runs:
//
//	des_events_scheduled_total   events pushed onto the queue
//	des_events_fired_total       events whose handler ran
//	des_events_cancelled_total   events removed before firing
//	des_pending_events           pending events, heap and lane
//	des_sim_time_seconds         current virtual time
//
// Call it before Run; calling it again re-binds to the new registry.
func (s *Simulator) Instrument(reg *metrics.Registry) {
	s.met = &simMetrics{
		scheduled: reg.Counter("des_events_scheduled_total",
			"events pushed onto the simulation queue"),
		fired: reg.Counter("des_events_fired_total",
			"simulation events whose handler ran"),
		cancelled: reg.Counter("des_events_cancelled_total",
			"simulation events cancelled before firing"),
		queueLen: reg.Gauge("des_pending_events",
			"current simulation event-queue length"),
		simTime: reg.Gauge("des_sim_time_seconds",
			"current virtual time of the simulation"),
	}
}

// noteScheduled records one scheduled event.
func (s *Simulator) noteScheduled() {
	if s.met != nil {
		s.met.scheduled.Inc()
		s.met.queueLen.SetInt(s.Len())
	}
}

// noteCancelled records one cancelled event.
func (s *Simulator) noteCancelled() {
	if s.met != nil {
		s.met.cancelled.Inc()
		s.met.queueLen.SetInt(s.Len())
	}
}

// noteFired records one fired event and the clock advance.
func (s *Simulator) noteFired() {
	if s.met != nil {
		s.met.fired.Inc()
		s.met.queueLen.SetInt(s.Len())
		s.met.simTime.Set(s.now)
	}
}
