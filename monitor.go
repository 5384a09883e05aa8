package rejuv

import (
	"fmt"
	"net/http"
	"sync"
	"time"

	"rejuv/internal/core"
)

// Trigger describes one rejuvenation trigger raised by a Monitor.
type Trigger struct {
	// ID is the deterministic correlation id minted when the trigger
	// fired (core.TriggerID over the monitor's observation ordinal). The
	// same id appears on the journal's decision record and, when passed
	// to Actuator.ExecuteFor (or via Actuator.Trigger), on every record
	// of the actuation it provokes, so rejuvtrace can stitch the
	// observation -> decision -> actuation chain back together.
	ID uint64
	// Time is when the trigger fired.
	Time time.Time
	// Decision is the detector decision that fired it.
	Decision Decision
	// Observations is the total number of observations the monitor had
	// consumed when the trigger fired.
	Observations uint64
}

// MonitorConfig configures a Monitor.
type MonitorConfig struct {
	// Detector makes the trigger decisions. Required. The monitor owns
	// it after construction: do not observe through it directly.
	Detector Detector
	// OnTrigger runs — synchronously, under the monitor's lock — when
	// the detector triggers outside the cooldown window. Required.
	// Keep it short: start the actual rejuvenation asynchronously.
	OnTrigger func(Trigger)
	// Cooldown suppresses further triggers for this long after one
	// fires, giving the rejuvenated system time to return to normal
	// before it can be condemned again. Zero disables suppression.
	Cooldown time.Duration
	// Now supplies the time; nil means time.Now. Tests inject a fake.
	Now func() time.Time
	// Collector, when non-nil, publishes every observation and decision
	// into a metrics Registry: counts, an observed-value histogram,
	// cooldown state and detector internals. See NewCollector.
	Collector *Collector
	// Trace, when non-nil, keeps the most recent decisions in a ring of
	// journal decision records — the records Journal receives, with the
	// observation ordinal and value added — so a fired trigger can be
	// explained after the fact without a journal. See NewTraceLog.
	Trace *TraceLog
	// Journal, when non-nil, records every observation and every
	// evaluated decision to the flight recorder, with timestamps in
	// seconds relative to the monitor's first observation. The journal
	// can later be replayed with ReplayJournal to verify the decision
	// stream. See NewJournalWriter.
	Journal *JournalWriter
	// Hygiene governs non-finite observations (NaN, ±Inf) before they
	// reach the detector. The zero value, HygieneReject, drops them and
	// counts them in MonitorStats.Rejected (and the collector's
	// rejuv_observations_rejected_total) — a single poisoned probe
	// reading must never corrupt detector state. HygieneClamp
	// substitutes the last admitted value instead; HygieneOff restores
	// the legacy pass-through.
	Hygiene Hygiene
	// MaxSilence arms the staleness watchdog: when CheckStall is called
	// after no observation has arrived for longer than this, the monitor
	// counts a stall, raises the rejuv_stream_stalled gauge and invokes
	// OnStall. A silent stream looks exactly like a healthy one to a
	// threshold detector, so silence needs its own alarm. Zero disables
	// the watchdog.
	MaxSilence time.Duration
	// OnStall, when non-nil, runs — under the monitor's lock — each time
	// the watchdog transitions into the stalled state. It receives the
	// length of the silence so far.
	OnStall func(silence time.Duration)
}

// MonitorStats is a snapshot of monitor counters, taken atomically
// under the monitor lock by Stats.
type MonitorStats struct {
	// Observations counts every value fed to Observe.
	Observations uint64
	// Triggers counts triggers delivered to OnTrigger.
	Triggers uint64
	// Suppressed counts triggers eaten by the cooldown window.
	Suppressed uint64
	// Rejected counts non-finite observations intercepted by the hygiene
	// policy (dropped under HygieneReject, substituted under
	// HygieneClamp). Intercepted observations still count in
	// Observations but never reach the detector.
	Rejected uint64
	// Stalls counts staleness-watchdog trips: transitions into the
	// stalled state detected by CheckStall.
	Stalls uint64
	// TriggerPanics counts panics recovered from the OnTrigger callback.
	// The monitor survives a panicking callback; the detector has
	// already been reset by its own trigger at that point.
	TriggerPanics uint64
	// Rebaselines counts workload-shift rebaselines committed by the
	// detector (when it re-estimates its baseline online; see
	// NewRebaseDetector). Always 0 for plain detectors.
	Rebaselines uint64
	// LastTrigger is the time of the most recent delivered (not
	// suppressed) trigger; it is the zero time before the first one.
	LastTrigger time.Time
}

// Monitor adapts a Detector for concurrent production use: any goroutine
// may report observations, and the trigger callback fires when the
// detector decides to rejuvenate, rate-limited by a cooldown.
//
// The guard layer — cooldown gate, staleness watchdog, hygiene memory —
// is the shared core machinery (internal/core Cooldown, Watchdog,
// HygieneState) that the fleet engine applies per stream; the Monitor
// is the one-stream instantiation of the same state machines. Its
// detector step is core.Feed, journaled by journal.(*Writer).Step: the
// same step the simulation model and the conformance laws run.
type Monitor struct {
	cfg MonitorConfig

	mu    sync.Mutex
	stats MonitorStats // guarded by mu
	// epoch anchors journal and trace timestamps at the first
	// observation either records; the zero value means none was
	// recorded yet.
	epoch time.Time // guarded by mu
	// feed steps the detector behind the hygiene policy.
	feed core.Feed // guarded by mu
	// cool suppresses triggers inside the cooldown window of the last
	// delivered one.
	cool core.Cooldown // guarded by mu
	// dog is the staleness watchdog; arrival of any value, even a
	// rejected one, proves the stream is alive.
	dog core.Watchdog // guarded by mu
}

// NewMonitor validates the configuration and returns a monitor.
func NewMonitor(cfg MonitorConfig) (*Monitor, error) {
	if cfg.Detector == nil {
		return nil, fmt.Errorf("rejuv: monitor needs a detector")
	}
	if cfg.OnTrigger == nil {
		return nil, fmt.Errorf("rejuv: monitor needs an OnTrigger callback")
	}
	if cfg.Cooldown < 0 {
		return nil, fmt.Errorf("rejuv: monitor cooldown must be non-negative, got %v", cfg.Cooldown)
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	m := &Monitor{
		cfg:  cfg,
		feed: core.NewFeed(cfg.Detector),
		cool: core.NewCooldown(cfg.Cooldown),
		dog:  core.NewWatchdog(cfg.MaxSilence),
	}
	return m, nil
}

// Observe reports one observation of the monitored metric. Safe for
// concurrent use. Non-finite values are handled by the configured
// Hygiene policy before the detector sees them.
//
// This is the per-observation path the whole fleet pays for; everything
// reachable from here must stay allocation-free (see DESIGN §13).
//
//lint:hotpath
func (m *Monitor) Observe(x float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.stats.Observations++

	s := m.feed.Observe(m.cfg.Hygiene, x)
	if s.Intercepted {
		m.stats.Rejected++
	}
	if !s.Admitted {
		m.observeRejected(x, s)
		return
	}
	if s.Rebased {
		m.stats.Rebaselines++
	}
	d := s.Decision
	if !d.Triggered && !s.Rebased && !s.Intercepted && !m.dog.Enabled() &&
		m.cfg.Collector == nil && m.cfg.Trace == nil && m.cfg.Journal == nil {
		return // the common un-instrumented fast path needs no clock
	}
	c, tl, jw := m.cfg.Collector, m.cfg.Trace, m.cfg.Journal
	now := m.cfg.Now()
	m.feedWatchdog(now)
	inCool := m.cool.Active(now.UnixNano())
	suppressed := d.Triggered && inCool
	// Mint the correlation id for any triggering decision (suppressed
	// ones included, so the journal can still attribute them). Stream 0
	// is reserved for single-stream monitors; fleet streams start at 1.
	var tid uint64
	if d.Triggered {
		tid = core.TriggerID(0, m.stats.Observations)
		if suppressed {
			m.stats.Suppressed++
		} else {
			m.stats.Triggers++
			m.stats.LastTrigger = now
			// The cooldown window (if any) opens at this instant.
			m.cool.Open(now.UnixNano())
			inCool = m.cfg.Cooldown > 0
		}
	}
	// One snapshot of the detector's internals serves every sink: the
	// collector's gauges on each observation, the journal and the trace
	// ring on each decision they record.
	decided := d.Evaluated || d.Triggered
	var in DetectorInternals
	var snap *DetectorInternals
	if c != nil || (decided && (tl != nil || jw != nil)) {
		var ok bool
		if in, ok = m.feed.Internals(); ok {
			snap = &in
		}
	}
	if c != nil {
		c.observe(s.Value, d, snap, suppressed, inCool)
		if s.Intercepted {
			c.rejected.Inc()
		}
	}
	if tl != nil || jw != nil {
		t := m.since(now)
		if jw != nil {
			jw.Step(t, 0, x, s, in, suppressed, tid)
		}
		if decided && tl != nil {
			tl.step(t, m.stats.Observations, s, in, suppressed, tid)
		}
	}
	if d.Triggered && !suppressed {
		m.deliver(Trigger{ID: tid, Time: now, Decision: d, Observations: m.stats.Observations})
	}
}

// observeRejected handles step s, an observation x dropped by the
// hygiene policy: it is counted and journaled as a fault but never
// reaches the detector, so the decision stream stays byte-identical to
// a clean run. Callers hold m.mu and have already counted the
// rejection.
//
//lint:holds mu
func (m *Monitor) observeRejected(x float64, s *core.Step) {
	if !m.dog.Enabled() && m.cfg.Collector == nil && m.cfg.Journal == nil {
		return
	}
	now := m.cfg.Now()
	m.feedWatchdog(now)
	if c := m.cfg.Collector; c != nil {
		c.rejected.Inc()
	}
	if jw := m.cfg.Journal; jw != nil {
		jw.Step(m.since(now), 0, x, s, DetectorInternals{}, false, 0)
	}
}

// since returns now in seconds after the epoch, anchoring the epoch at
// now when nothing was journaled or traced before. Callers hold m.mu.
//
//lint:holds mu
func (m *Monitor) since(now time.Time) float64 {
	if m.epoch.IsZero() {
		m.epoch = now
	}
	return now.Sub(m.epoch).Seconds()
}

// deliver invokes OnTrigger with panic isolation: a panicking callback
// is recovered and counted, never allowed to tear down the goroutine
// that happened to carry the triggering observation. Callers hold m.mu.
//
//lint:holds mu
func (m *Monitor) deliver(tr Trigger) {
	//lint:allow hotpath one closure per delivered trigger, not per observation
	defer func() {
		if r := recover(); r != nil {
			m.stats.TriggerPanics++
			if c := m.cfg.Collector; c != nil {
				c.triggerPanics.Inc()
			}
		}
	}()
	m.cfg.OnTrigger(tr)
}

// feedWatchdog records stream liveness and clears a latched stall.
// Callers hold m.mu.
//
//lint:holds mu
func (m *Monitor) feedWatchdog(now time.Time) {
	if m.dog.Feed(now.UnixNano()) {
		if c := m.cfg.Collector; c != nil {
			c.stalledGauge.Set(0)
		}
	}
}

// CheckStall evaluates the staleness watchdog and reports whether the
// observation stream is currently stalled: no Observe call for longer
// than MaxSilence. Call it periodically (a metrics scrape loop is a
// natural place). The first call arms the watchdog if no observation
// has arrived yet. On the transition into the stalled state the monitor
// counts a stall, sets the rejuv_stream_stalled gauge and invokes
// OnStall. With MaxSilence zero the watchdog is disabled and CheckStall
// always reports false.
func (m *Monitor) CheckStall() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	tripped, silence := m.dog.Check(m.cfg.Now().UnixNano())
	if tripped {
		m.stats.Stalls++
		if c := m.cfg.Collector; c != nil {
			c.stallsTotal.Inc()
			c.stalledGauge.Set(1)
		}
		if m.cfg.OnStall != nil {
			m.cfg.OnStall(silence)
		}
	}
	return m.dog.Stalled()
}

// ObserveDuration reports a duration observation in seconds, the natural
// unit for response times.
func (m *Monitor) ObserveDuration(d time.Duration) {
	m.Observe(d.Seconds())
}

// Reset restores the underlying detector to its initial state (for
// example after an externally initiated restart). Counters are kept.
func (m *Monitor) Reset() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.cfg.Detector.Reset()
	if jw := m.cfg.Journal; jw != nil && !m.epoch.IsZero() {
		jw.Reset(m.cfg.Now().Sub(m.epoch).Seconds())
	}
}

// Stats returns a snapshot of the monitor counters. The copy is taken
// under the monitor lock, so all fields — including LastTrigger — are
// mutually consistent: they describe one instant, even while other
// goroutines keep observing. The snapshot does not change after it is
// returned; call Stats again for fresh values.
func (m *Monitor) Stats() MonitorStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

// Middleware wraps an http.Handler so every request's wall-clock service
// time is observed — the paper's core prescription: monitor the metric
// the customer experiences, not proxies like CPU or memory.
func (m *Monitor) Middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := m.cfg.Now()
		next.ServeHTTP(w, r)
		m.Observe(m.cfg.Now().Sub(start).Seconds())
	})
}
