package sched

import (
	"math"
	"sort"

	"rejuv/internal/core"
)

// state is a replica's position in the scheduling lifecycle.
type state uint8

const (
	stateIdle state = iota
	stateQueued
	stateDown
	stateQuarantined
)

// entry is one queued rejuvenation request; duplicates coalesce into it.
type entry struct {
	replica     int
	level, fill int
	urgency     float64 // base urgency (level+1)×(fill+1); age is added at scan time
	count       int     // requests coalesced into this entry
	enqueued    float64 // time of the first request
	deferrals   int     // journaled defer decisions so far
	escalated   bool    // past the max-defer latch or starvation-escalated
	lastReason  string  // last journaled defer reason; repeats are not re-journaled
	triggerID   uint64
}

// Stats counts governor activity since construction.
type Stats struct {
	// Requests is every Request call received.
	Requests uint64
	// Enqueued counts admissions, including requeues after a failed action.
	Enqueued uint64
	// Coalesced counts duplicate requests merged into queued entries.
	Coalesced uint64
	// Saturated counts requests refused because the queue was full.
	Saturated uint64
	// Refused counts requests refused as in-flight or quarantined.
	Refused uint64
	// Escalated counts entries escalated past the deferral windows.
	Escalated uint64
	// Deferrals counts journaled defer decisions.
	Deferrals uint64
	// Starts counts dispatched actions.
	Starts uint64
	// Completes counts finished actions.
	Completes uint64
	// Requeues counts failed actions that re-entered the queue.
	Requeues uint64
	// Quarantines and Readmits count capacity-shedding transitions.
	Quarantines uint64
	Readmits    uint64
}

// Governor is the deterministic scheduling state machine. It holds the
// bounded priority queue, the per-group capacity accounting and the
// per-replica lifecycle state; every method takes the current time as
// an input (the governor never reads a clock) and returns the typed
// transitions the call produced, in the exact order a journaling caller
// must record them. It is not safe for concurrent use; rejuv.Scheduler
// wraps it in a mutex for production, and the simulated cluster is
// single-threaded by construction.
type Governor struct {
	cfg    Config
	group  []int // replica -> group
	groups int

	st         []state
	deferUntil []float64 // per-replica QoS horizon, declared via Request
	lastLevel  []int     // detector state of the last dispatched action,
	lastFill   []int     // kept for the requeue after a failed action
	lastTID    []uint64

	queue             []entry
	down, quar, total []int // per group
	maxDown           []int // high-water mark of down, per group

	stats        Stats
	groupBlocked []bool // scan scratch
	orderBuf     []int  // scan scratch
}

// New builds a Governor, applying defaults and validating the config.
func New(cfg Config) (*Governor, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	g := &Governor{cfg: cfg}
	g.group = make([]int, cfg.Replicas)
	copy(g.group, cfg.Group)
	g.groups = 1
	for _, grp := range g.group {
		if grp+1 > g.groups {
			g.groups = grp + 1
		}
	}
	g.st = make([]state, cfg.Replicas)
	g.deferUntil = make([]float64, cfg.Replicas)
	g.lastLevel = make([]int, cfg.Replicas)
	g.lastFill = make([]int, cfg.Replicas)
	g.lastTID = make([]uint64, cfg.Replicas)
	g.queue = make([]entry, 0, cfg.QueueDepth)
	g.down = make([]int, g.groups)
	g.quar = make([]int, g.groups)
	g.total = make([]int, g.groups)
	g.maxDown = make([]int, g.groups)
	g.groupBlocked = make([]bool, g.groups)
	for _, grp := range g.group {
		g.total[grp]++
	}
	return g, nil
}

// Config returns the defaulted configuration in effect.
func (g *Governor) Config() Config { return g.cfg }

// Stats returns the activity counters.
func (g *Governor) Stats() Stats { return g.stats }

// Groups returns the number of replica groups.
func (g *Governor) Groups() int { return g.groups }

// Queued returns the number of queued entries.
func (g *Governor) Queued() int { return len(g.queue) }

// Down returns how many replicas of the group are currently down.
func (g *Governor) Down(group int) int {
	if group < 0 || group >= g.groups {
		return 0
	}
	return g.down[group]
}

// MaxDownSeen returns the high-water mark of simultaneously down
// replicas of the group — the observable side of the capacity-budget
// conformance law.
func (g *Governor) MaxDownSeen(group int) int {
	if group < 0 || group >= g.groups {
		return 0
	}
	return g.maxDown[group]
}

// Quarantined returns how many replicas of the group are quarantined.
func (g *Governor) Quarantined(group int) int {
	if group < 0 || group >= g.groups {
		return 0
	}
	return g.quar[group]
}

// InService reports whether the replica is in service (not down and not
// quarantined) as far as the scheduler knows.
func (g *Governor) InService(replica int) bool {
	if replica < 0 || replica >= len(g.st) {
		return false
	}
	return g.st[replica] == stateIdle || g.st[replica] == stateQueued
}

// baseUrgency is the request priority before aging: detector level ×
// fill, both shifted so a level-0 fill-0 request still has weight.
func baseUrgency(level, fill int) float64 {
	return float64(level+1) * float64(fill+1)
}

// effUrgency is the entry's priority at time t: base urgency plus its
// age in units of AgeScale seconds. It runs once per queue entry per
// scan and must not allocate.
//
//lint:hotpath
func (g *Governor) effUrgency(e *entry, t float64) float64 {
	age := t - e.enqueued
	if age < 0 {
		age = 0
	}
	return e.urgency + age/g.cfg.AgeScale
}

// budget is the group's effective max-down budget: MaxDown, capped by
// the replicas the group still has (quarantined ones shed their share).
func (g *Governor) budget(grp int) int {
	b := g.cfg.MaxDown
	if avail := g.total[grp] - g.quar[grp]; b > avail {
		b = avail
	}
	return b
}

// Request feeds one rejuvenation request: the detector watching replica
// wants it rejuvenated, with the given bucket level/fill (callers pass
// level = Config.TriggerLevel for triggering decisions), a QoS deadline
// horizon (absolute time before which a restart would violate in-flight
// work; 0 when none) and the trigger id of the raising decision. The
// returned transitions are the admission decision (enqueue, coalesce,
// or an explicit journaled refusal) followed by any dispatches the new
// queue state allows.
//
//lint:allow hotpath each call returns a fresh transition group, which callers hold across nested calls; it runs per rejuvenation request or action, not per observation
func (g *Governor) Request(t float64, replica, level, fill int, deadline float64, triggerID uint64) []Transition {
	if replica < 0 || replica >= len(g.st) {
		return nil
	}
	g.stats.Requests++
	var out []Transition
	switch g.st[replica] {
	case stateQuarantined:
		g.stats.Refused++
		out = append(out, Transition{Op: OpDefer, Time: t, Replica: replica,
			Reason: ReasonQuarantined, Level: level, Fill: fill, TriggerID: triggerID})
	case stateDown:
		g.stats.Refused++
		out = append(out, Transition{Op: OpDefer, Time: t, Replica: replica,
			Reason: ReasonInFlight, Level: level, Fill: fill, TriggerID: triggerID})
	case stateQueued:
		qi := g.find(replica)
		e := &g.queue[qi]
		if level > e.level {
			e.level = level
		}
		if fill > e.fill {
			e.fill = fill
		}
		e.count++
		e.urgency = baseUrgency(e.level, e.fill)
		if e.triggerID == 0 {
			e.triggerID = triggerID
		}
		if deadline > g.deferUntil[replica] {
			g.deferUntil[replica] = deadline
		}
		g.stats.Coalesced++
		out = append(out, Transition{Op: OpCoalesce, Time: t, Replica: replica,
			Reason: ReasonDuplicate, Level: e.level, Fill: e.fill, Deadline: deadline,
			Count: e.count, Urgency: g.effUrgency(e, t), TriggerID: e.triggerID})
	default: // idle
		if len(g.queue) >= g.cfg.QueueDepth {
			// Graceful overload: refuse the newcomer explicitly and
			// escalate the oldest starved entry so the queue drains.
			g.stats.Saturated++
			out = append(out, Transition{Op: OpDefer, Time: t, Replica: replica,
				Reason: ReasonSaturated, Level: level, Fill: fill, TriggerID: triggerID})
			if oi := g.oldestWaiting(); oi >= 0 {
				oe := &g.queue[oi]
				oe.escalated = true
				oe.lastReason = ""
				g.stats.Escalated++
				out = append(out, Transition{Op: OpCoalesce, Time: t, Replica: oe.replica,
					Reason: ReasonStarved, Level: oe.level, Fill: oe.fill, Count: oe.count,
					Urgency: g.effUrgency(oe, t), TriggerID: oe.triggerID})
			}
		} else {
			e := entry{replica: replica, level: level, fill: fill,
				urgency: baseUrgency(level, fill), count: 1, enqueued: t, triggerID: triggerID}
			g.queue = append(g.queue, e)
			g.st[replica] = stateQueued
			if deadline > g.deferUntil[replica] {
				g.deferUntil[replica] = deadline
			}
			g.stats.Enqueued++
			out = append(out, Transition{Op: OpEnqueue, Time: t, Replica: replica,
				Level: level, Fill: fill, Deadline: deadline, Urgency: e.urgency, TriggerID: triggerID})
		}
	}
	return g.scan(t, out)
}

// Complete reports a dispatched action finishing. ok means the replica
// is back in service; a failed action re-enters the queue (bypassing
// the depth bound — it held a slot before starting), keeping the
// detector state it was dispatched with.
//
//lint:allow hotpath each call returns a fresh transition group, which callers hold across nested calls; it runs per rejuvenation request or action, not per observation
func (g *Governor) Complete(t float64, replica int, ok bool) []Transition {
	if replica < 0 || replica >= len(g.st) || g.st[replica] != stateDown {
		return nil
	}
	grp := g.group[replica]
	g.down[grp]--
	g.st[replica] = stateIdle
	g.stats.Completes++
	out := []Transition{{Op: OpComplete, Time: t, Replica: replica, OK: ok, TriggerID: g.lastTID[replica]}}
	if !ok {
		g.stats.Requeues++
		g.stats.Enqueued++
		level, fill := g.lastLevel[replica], g.lastFill[replica]
		e := entry{replica: replica, level: level, fill: fill,
			urgency: baseUrgency(level, fill), count: 1, enqueued: t, triggerID: g.lastTID[replica]}
		g.queue = append(g.queue, e)
		g.st[replica] = stateQueued
		out = append(out, Transition{Op: OpEnqueue, Time: t, Replica: replica,
			Level: level, Fill: fill, Urgency: e.urgency, TriggerID: e.triggerID})
	}
	return g.scan(t, out)
}

// GiveUp quarantines a replica after its actuator gave up: the replica
// leaves scheduling and its capacity share is shed from the group until
// Readmit. It applies to a replica in any non-quarantined state (a
// queued entry is dropped; a down replica stops counting against the
// budget).
func (g *Governor) GiveUp(t float64, replica int, errText string) []Transition {
	if replica < 0 || replica >= len(g.st) || g.st[replica] == stateQuarantined {
		return nil
	}
	grp := g.group[replica]
	switch g.st[replica] {
	case stateDown:
		g.down[grp]--
	case stateQueued:
		qi := g.find(replica)
		g.queue = append(g.queue[:qi], g.queue[qi+1:]...)
	}
	g.st[replica] = stateQuarantined
	g.quar[grp]++
	g.stats.Quarantines++
	out := []Transition{{Op: OpQuarantine, Time: t, Replica: replica,
		Reason: errText, TriggerID: g.lastTID[replica]}}
	return g.scan(t, out)
}

// Readmit returns a recovered replica to scheduling, restoring its
// capacity share.
func (g *Governor) Readmit(t float64, replica int) []Transition {
	if replica < 0 || replica >= len(g.st) || g.st[replica] != stateQuarantined {
		return nil
	}
	grp := g.group[replica]
	g.quar[grp]--
	g.st[replica] = stateIdle
	g.deferUntil[replica] = 0
	g.lastTID[replica] = 0
	g.stats.Readmits++
	out := []Transition{{Op: OpReadmit, Time: t, Replica: replica}}
	return g.scan(t, out)
}

// Tick re-evaluates the queue at time t: deadline windows may have
// expired and waiting entries may have crossed the starvation latch.
// Callers schedule ticks at NextWake times.
func (g *Governor) Tick(t float64) []Transition {
	return g.scan(t, nil)
}

// NextWake returns the earliest future time at which the passage of
// time alone could change a scheduling decision (a deadline horizon
// expiring or an entry crossing the starvation latch), or +Inf when no
// queued entry is waiting on time. Event-driven callers schedule a Tick
// there.
func (g *Governor) NextWake(now float64) float64 {
	wake := math.Inf(1)
	for i := range g.queue {
		e := &g.queue[i]
		if e.escalated {
			continue
		}
		if d := g.deferUntil[e.replica]; d > now && d < wake {
			wake = d
		}
		if g.cfg.MaxDefer > 0 {
			if l := e.enqueued + g.cfg.MaxDefer; l > now && l < wake {
				wake = l
			}
		}
	}
	return wake
}

// find returns the queue index of the replica's entry; the caller
// guarantees one exists (state == stateQueued).
func (g *Governor) find(replica int) int {
	for i := range g.queue {
		if g.queue[i].replica == replica {
			return i
		}
	}
	return -1
}

// oldestWaiting returns the index of the oldest non-escalated entry, or
// -1 when every entry is already escalated.
func (g *Governor) oldestWaiting() int {
	best := -1
	for i := range g.queue {
		e := &g.queue[i]
		if e.escalated {
			continue
		}
		if best < 0 {
			best = i
			continue
		}
		b := &g.queue[best]
		if e.enqueued < b.enqueued || (!(e.enqueued > b.enqueued) && e.replica < b.replica) {
			best = i
		}
	}
	return best
}

// tierFor selects the action tier for a request level: the highest-
// MinSeverity tier at or below the level's severity.
func (g *Governor) tierFor(level int) Tier {
	s := core.Severity(level, g.cfg.TriggerLevel)
	pick := g.cfg.Tiers[0]
	for _, tier := range g.cfg.Tiers[1:] {
		if s >= tier.MinSeverity {
			pick = tier
		}
	}
	return pick
}

// scan is the dispatch loop: it applies the starvation latch, then
// repeatedly picks the highest-priority eligible entry and starts it,
// until the queue is drained or every remaining entry is blocked.
// Blocking decisions are journaled as defer transitions — once per
// reason change per entry, and only for the first blocked entry of a
// group under a group-wide reason — so journals record why nothing
// started without recording it again at every event.
//
//lint:allow hotpath appends to the caller's transition group and queue growth is amortized; scans run per rejuvenation request or action, not per observation
func (g *Governor) scan(t float64, out []Transition) []Transition {
	// Starvation latch: escalate entries that have waited past MaxDefer.
	if g.cfg.MaxDefer > 0 {
		for i := range g.queue {
			e := &g.queue[i]
			if !e.escalated && t-e.enqueued >= g.cfg.MaxDefer {
				e.escalated = true
				e.lastReason = ""
				g.stats.Escalated++
				out = append(out, Transition{Op: OpCoalesce, Time: t, Replica: e.replica,
					Reason: ReasonMaxDefer, Level: e.level, Fill: e.fill, Count: e.count,
					Urgency: g.effUrgency(e, t), TriggerID: e.triggerID})
			}
		}
	}
	for {
		pick := -1
		for i := range g.groupBlocked {
			g.groupBlocked[i] = false
		}
		for _, qi := range g.order(t) {
			e := &g.queue[qi]
			grp := g.group[e.replica]
			if g.groupBlocked[grp] {
				continue
			}
			reason, groupWide := g.blocked(e, grp, t)
			if reason == "" {
				pick = qi
				break
			}
			if groupWide {
				g.groupBlocked[grp] = true
			}
			if e.lastReason != reason {
				e.lastReason = reason
				e.deferrals++
				g.stats.Deferrals++
				out = append(out, Transition{Op: OpDefer, Time: t, Replica: e.replica,
					Reason: reason, Level: e.level, Fill: e.fill, Count: e.deferrals,
					TriggerID: e.triggerID})
			}
		}
		if pick < 0 {
			return out
		}
		e := g.queue[pick]
		g.queue = append(g.queue[:pick], g.queue[pick+1:]...)
		grp := g.group[e.replica]
		g.st[e.replica] = stateDown
		g.down[grp]++
		if g.down[grp] > g.maxDown[grp] {
			g.maxDown[grp] = g.down[grp]
		}
		g.deferUntil[e.replica] = 0
		g.lastLevel[e.replica] = e.level
		g.lastFill[e.replica] = e.fill
		g.lastTID[e.replica] = e.triggerID
		tier := g.tierFor(e.level)
		pause := tier.PauseFrac * g.cfg.FullPause
		if pause < 0 {
			pause = 0 // negative FullPause spells instantaneous restarts
		}
		g.stats.Starts++
		out = append(out, Transition{Op: OpStart, Time: t, Replica: e.replica,
			Level: e.level, Fill: e.fill, Tier: tier, Pause: pause,
			Urgency: g.effUrgency(&e, t), TriggerID: e.triggerID})
	}
}

// blocked reports why the entry cannot start now ("" when it can) and
// whether the reason blocks the whole group (budget, floor) or just
// this replica (deadline). Escalated entries bypass the deferral
// windows; only the capacity budget still binds them. Like effUrgency
// it runs once per queue entry per scan and must not allocate.
//
//lint:hotpath
func (g *Governor) blocked(e *entry, grp int, t float64) (reason string, groupWide bool) {
	if g.down[grp] >= g.budget(grp) {
		return ReasonBudget, true
	}
	if e.escalated {
		return "", false
	}
	if t < g.deferUntil[e.replica] {
		return ReasonDeadline, false
	}
	if f := g.cfg.CapacityFloor; f > 0 {
		avail := g.total[grp] - g.quar[grp]
		if avail > 1 && float64(avail-g.down[grp]-1) < f*float64(avail) {
			return ReasonFloor, true
		}
	}
	return "", false
}

// order returns the queue indices in dispatch order: escalated entries
// first, then by effective urgency (descending), then by arrival time,
// then by replica id — a total order, so scheduling is deterministic.
//
//lint:allow hotpath sort.Slice boxes the reused index buffer and its comparator once per scan; scans run per rejuvenation request or action, not per observation
func (g *Governor) order(t float64) []int {
	idx := g.orderBuf[:0]
	for i := range g.queue {
		idx = append(idx, i)
	}
	sort.Slice(idx, func(a, b int) bool {
		ea, eb := &g.queue[idx[a]], &g.queue[idx[b]]
		if ea.escalated != eb.escalated {
			return ea.escalated
		}
		ua, ub := g.effUrgency(ea, t), g.effUrgency(eb, t)
		if ua > ub {
			return true
		}
		if ua < ub {
			return false
		}
		if ea.enqueued < eb.enqueued {
			return true
		}
		if ea.enqueued > eb.enqueued {
			return false
		}
		return ea.replica < eb.replica
	})
	g.orderBuf = idx
	return idx
}
