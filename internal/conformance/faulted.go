package conformance

import (
	"bytes"
	"fmt"
	"math"

	"rejuv/internal/core"
	"rejuv/internal/faults"
	"rejuv/internal/journal"
)

// Fault-injection harness for the conformance laws: observation
// streams pass through a deterministic fault injector and a hygiene
// gate before reaching the detector. The detector step is the
// production one (core.Feed, journaled by journal.(*Writer).Step, as
// in the Monitor and internal/ecommerce): injected corruptions are
// journaled as fault records, intercepted values never reach the
// detector or the journal's observe stream, and the journal replays
// byte-identically.

// faultLawStream is the xrand stream id reserved for fault-law
// injectors, distinct from traceStream so faulting a trace never
// changes the trace itself.
const faultLawStream = 7101

// FaultScenario names one fault class together with the pinned
// reference parameters the fault laws inject.
type FaultScenario struct {
	// Name identifies the scenario in test output.
	Name string
	// Spec is the fault-spec clause, parsed with faults.ParseSpec.
	Spec string
}

// FaultScenarios returns the pinned fault matrix the laws run every
// detector family against: one scenario per fault class of
// internal/faults that acts on the observation stream.
func FaultScenarios() []FaultScenario {
	return []FaultScenario{
		{"nan", "nan:p=0.05"},
		{"pos-inf", "inf:p=0.05"},
		{"neg-inf", "inf:p=0.05,sign=-"},
		{"neg", "neg:p=0.05"},
		{"freeze", "freeze:p=0.02,len=5"},
		{"drop", "drop:p=0.05"},
		{"dup", "dup:p=0.05"},
		{"reorder", "reorder:p=0.1"},
		{"stall", "stall:at=100,len=40"},
	}
}

// FaultedResult is the outcome of one faulted, journaled run.
type FaultedResult struct {
	// Decisions is the decision stream over the observations the
	// detector actually saw (post-injection, post-hygiene).
	Decisions []core.Decision
	// Triggers counts triggering decisions.
	Triggers int
	// Injected counts faults the injector fired.
	Injected int
	// Rejected counts non-finite observations the hygiene gate
	// intercepted (rejected or clamped).
	Rejected int
	// Finite reports whether the detector's internal state was free of
	// NaN and infinities when the run ended.
	Finite bool
	// Rebaselines counts committed workload-shift rebaselines, for
	// detectors that re-estimate their baseline (core.Rebaseliner).
	Rebaselines int
	// Replay is the journal replay report; Replay.Identical() is the
	// proof that the faulted run is reconstructible from its journal.
	Replay journal.ReplayReport
}

// RunFaulted feeds the trace through a fault injector built from spec
// (seed-pinned on stream faultLawStream) and a hygiene gate into a
// fresh detector from factory, journaling the run into an in-memory
// binary journal, then replays the journal through a second detector
// from the same factory. Each observation the injector emits is one
// core.Feed step journaled by journal.(*Writer).Step, the Monitor's
// and the simulation model's step; injections are journaled as fault
// records, and every trigger is followed by a detector Reset plus a
// journal reset record, as the model rejuvenates.
func RunFaulted(name string, factory func() (core.Detector, error), trace []float64, spec faults.Spec, hygiene core.Hygiene, seed uint64) (FaultedResult, error) {
	det, err := factory()
	if err != nil {
		return FaultedResult{}, fmt.Errorf("conformance: factory: %w", err)
	}
	var res FaultedResult
	var buf bytes.Buffer
	jw := journal.NewWriter(&buf, journal.Meta{CreatedBy: "conformance-faults", Detector: name})
	jw.RepStart(0, 0, seed, faultLawStream)

	now := 0.0
	inj := faults.NewInjector(spec, seed, faultLawStream)
	inj.OnFault = func(class faults.Class, value float64) {
		res.Injected++
		jw.Injected(now, string(class), value)
	}

	f := core.NewFeed(det)
	feed := func(x float64) {
		s := f.Observe(hygiene, x)
		if s.Intercepted {
			res.Rejected++
		}
		if s.Rebased {
			res.Rebaselines++
		}
		var in core.Internals
		if s.Decision.Evaluated || s.Decision.Triggered {
			in, _ = f.Internals()
		}
		jw.Step(now, 0, x, s, in, false, 0)
		if !s.Admitted {
			return
		}
		res.Decisions = append(res.Decisions, s.Decision)
		if s.Decision.Triggered {
			res.Triggers++
			det.Reset()
			jw.Reset(now)
		}
	}
	for i, x := range trace {
		now = float64(i)
		for _, v := range inj.Apply(x) {
			feed(v)
		}
	}
	for _, v := range inj.Flush() {
		feed(v)
	}
	res.Finite = FiniteInternals(det)

	if err := jw.Err(); err != nil {
		return FaultedResult{}, fmt.Errorf("conformance: journal writer: %w", err)
	}
	jr, err := journal.NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		return FaultedResult{}, fmt.Errorf("conformance: journal reader: %w", err)
	}
	rep, err := journal.Replay(jr, func(string) (core.Detector, error) { return factory() })
	if err != nil {
		return FaultedResult{}, fmt.Errorf("conformance: replay: %w", err)
	}
	res.Replay = rep
	return res, nil
}

// FiniteInternals reports whether the detector's internal-state
// snapshot is free of NaN and infinities. Detectors that do not expose
// internals pass vacuously.
func FiniteInternals(det core.Detector) bool {
	instr, ok := det.(core.Instrumented)
	if !ok {
		return true
	}
	in := instr.Internals()
	return !math.IsNaN(in.Target) && !math.IsInf(in.Target, 0) &&
		!math.IsNaN(in.Statistic) && !math.IsInf(in.Statistic, 0)
}
