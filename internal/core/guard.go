package core

import (
	"math"
	"time"
)

// This file holds the guard-layer state machines shared by the public
// Monitor (one stream) and the fleet engine (many streams): trigger
// cooldown, staleness watchdog, and the per-stream hygiene memory that
// backs HygieneClamp. They live here, below both callers, so the two
// ingestion paths cannot drift apart — a fleet shard stores these as
// plain value slices, and the Monitor embeds one of each. All three
// are pure state machines over caller-supplied clocks (nanosecond
// readings), never touching the wall clock themselves, which keeps
// them usable from deterministic simulations. Feed, the single-detector
// step, is the one path by which the Monitor, the simulation model and
// the conformance harness drive a detector.

// Cooldown suppresses triggers that fire too soon after a delivered
// one, giving a rejuvenated system time to return to normal before it
// can be condemned again. The zero value (window 0) never suppresses.
// Times are caller-supplied monotonic nanosecond readings; only their
// differences matter.
type Cooldown struct {
	window int64 // suppression window in nanoseconds; 0 disables
	last   int64 // clock reading of the last delivered trigger
	armed  bool  // a trigger has been delivered
}

// NewCooldown returns a cooldown gate with the given suppression
// window. A non-positive window disables suppression.
func NewCooldown(window time.Duration) Cooldown {
	if window < 0 {
		window = 0
	}
	return Cooldown{window: window.Nanoseconds()}
}

// Active reports whether now falls inside the suppression window opened
// by the last delivered trigger.
func (c *Cooldown) Active(now int64) bool {
	return c.window > 0 && c.armed && now-c.last < c.window
}

// Open records a delivered trigger at now, opening the suppression
// window (when one is configured).
func (c *Cooldown) Open(now int64) {
	c.last = now
	c.armed = true
}

// Window returns the configured suppression window.
func (c *Cooldown) Window() time.Duration { return time.Duration(c.window) }

// Reset forgets the last trigger, as after an external restart.
func (c *Cooldown) Reset() { c.armed = false }

// Watchdog detects a stalled observation stream: silence longer than
// the configured maximum. A silent stream looks exactly like a healthy
// one to a threshold detector — no observations means no exceedances —
// so silence needs its own alarm. The zero value (max silence 0) is
// disabled. The stalled state latches so each silence counts once;
// the next observation clears it.
type Watchdog struct {
	maxSilence int64 // nanoseconds; 0 disables
	lastSeen   int64 // clock reading of the last observation
	seen       bool  // an observation (or arming Check) has happened
	stalled    bool  // latched stall state
}

// NewWatchdog returns a watchdog that trips after maxSilence without an
// observation. A non-positive maxSilence disables it.
func NewWatchdog(maxSilence time.Duration) Watchdog {
	if maxSilence < 0 {
		maxSilence = 0
	}
	return Watchdog{maxSilence: maxSilence.Nanoseconds()}
}

// Enabled reports whether the watchdog is armed at all.
func (w *Watchdog) Enabled() bool { return w.maxSilence > 0 }

// Feed records stream liveness at now and reports whether a latched
// stall was cleared by this observation.
func (w *Watchdog) Feed(now int64) (cleared bool) {
	w.lastSeen = now
	w.seen = true
	cleared = w.stalled
	w.stalled = false
	return cleared
}

// Check evaluates the watchdog at now. tripped reports a transition
// into the stalled state (count it once); silence is how long the
// stream has been quiet. The first Check before any observation arms
// the watchdog instead of tripping it. With max silence 0 the watchdog
// never trips.
func (w *Watchdog) Check(now int64) (tripped bool, silence time.Duration) {
	if w.maxSilence <= 0 {
		return false, 0
	}
	if !w.seen {
		w.lastSeen = now
		w.seen = true
		return false, 0
	}
	quiet := now - w.lastSeen
	if quiet <= w.maxSilence {
		return false, time.Duration(quiet)
	}
	if !w.stalled {
		w.stalled = true
		return true, time.Duration(quiet)
	}
	return false, time.Duration(quiet)
}

// Stalled reports the latched stall state.
func (w *Watchdog) Stalled() bool { return w.stalled }

// HygieneState is the per-stream memory behind a Hygiene policy: the
// most recent admitted value, which HygieneClamp substitutes for a
// non-finite one. One exists per monitored stream; the policy itself is
// shared configuration.
type HygieneState struct {
	last float64
	have bool
}

// Admit applies policy p to one observation. v is the value to feed the
// detector (meaningful only when ok), ok reports whether to feed it at
// all, and intercepted reports that the raw observation was non-finite
// and handled by the policy (dropped or substituted) — the thing
// rejection counters count. Under HygieneOff nothing is ever
// intercepted, matching the legacy pass-through.
func (s *HygieneState) Admit(p Hygiene, x float64) (v float64, ok, intercepted bool) {
	intercepted = (math.IsNaN(x) || math.IsInf(x, 0)) && p != HygieneOff
	v, ok = p.Admit(x, s.last, s.have)
	if ok {
		s.last, s.have = v, true
	}
	return v, ok, intercepted
}

// Feed is the single-detector step: one detector behind its hygiene
// memory, with the rebaseline watermark that spots a committed
// workload-shift rebaseline the instant it happens and the detector's
// Instrumented view. The Monitor, the simulation model and the
// conformance harness all step their detector through a Feed, and
// journal.(*Writer).Step records each Step as the record group
// journal.Replay reads, so the replay guarantee covers the production
// path itself.
type Feed struct {
	det     Detector
	hyg     HygieneState
	reb     Rebaseliner  // nil when the detector keeps a fixed baseline
	lastReb uint64       // reb's rebaseline count after the previous step
	instr   Instrumented // nil when the detector exposes no internals
	step    Step         // the outcome of the latest Observe
}

// NewFeed returns the step for det. A nil det yields a Feed that must
// not be observed through.
func NewFeed(det Detector) Feed {
	f := Feed{det: det}
	f.reb, _ = det.(Rebaseliner)
	f.instr, _ = det.(Instrumented)
	return f
}

// Step is the outcome of one Feed.Observe.
type Step struct {
	// Value is the value the detector saw; meaningful only when
	// Admitted.
	Value float64
	// Decision is the detector's decision, the zero Decision when the
	// observation was not admitted.
	Decision Decision
	// Admitted reports that Value reached the detector.
	Admitted bool
	// Intercepted reports that the raw observation was non-finite and
	// the hygiene policy dropped or substituted it.
	Intercepted bool
	// Rebased reports that the detector committed a workload-shift
	// rebaseline on this step.
	Rebased bool
	// Baseline is the baseline committed on this step; meaningful only
	// when Rebased.
	Baseline Baseline
}

// Observe applies hygiene policy p to x, feeds the admitted value to
// the detector and returns the outcome. The Step belongs to the Feed
// and is overwritten by the next Observe, so the per-observation paths
// never copy it.
//
//lint:hotpath
func (f *Feed) Observe(p Hygiene, x float64) *Step {
	s := &f.step
	// Field by field: assigning a Step literal builds it on the stack
	// and copies it over, a measurable share of the step.
	v, admitted, intercepted := f.hyg.Admit(p, x)
	s.Value, s.Admitted, s.Intercepted, s.Rebased = v, admitted, intercepted, false
	if !admitted {
		s.Decision = Decision{}
		return s
	}
	s.Decision = f.det.Observe(v)
	if f.reb != nil {
		if n := f.reb.Rebaselines(); n != f.lastReb {
			f.lastReb = n
			s.Rebased = true
			s.Baseline = f.reb.CurrentBaseline()
		}
	}
	return s
}

// Internals snapshots the detector's internals; ok is false, and in
// the zero value, when the detector exposes none.
func (f *Feed) Internals() (in Internals, ok bool) {
	if f.instr == nil {
		return Internals{}, false
	}
	return f.instr.Internals(), true
}
