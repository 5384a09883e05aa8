package conformance

import (
	"bytes"
	"fmt"
	"math"

	"rejuv/internal/core"
	"rejuv/internal/faults"
	"rejuv/internal/journal"
)

// Fault-injection harness for the conformance laws: the counterpart of
// RunJournaled for observation streams that pass through a deterministic
// fault injector and a hygiene gate before reaching the detector. The
// pipeline mirrors the hardened production path (Monitor hygiene,
// internal/ecommerce feedDetector): injected corruptions are journaled
// as fault records, intercepted values never reach the detector or the
// journal's observe stream, and the journal replays byte-identically.

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
// from the same factory. The journaling protocol mirrors
// internal/ecommerce: fault records for injections and hygiene
// interceptions (with non-finite values sanitized to 0 — the class
// names the poison), observe records only for admitted values, decision
// records when the step evaluated or triggered, detector Reset plus a
// journal reset record after every trigger.
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
		if math.IsNaN(value) || math.IsInf(value, 0) {
			value = 0
		}
		jw.Fault(now, string(class), value)
	}

	reb, _ := det.(core.Rebaseliner)
	var lastReb uint64
	var last float64
	var haveLast bool
	feed := func(x float64) {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			v, ok := hygiene.Admit(x, last, haveLast)
			if hygiene != core.HygieneOff {
				res.Rejected++
				jw.Fault(now, nonFiniteClass(x), 0)
			}
			if !ok {
				return
			}
			x = v
		}
		last, haveLast = x, true
		jw.Observe(now, 0, x)
		d := det.Observe(x)
		res.Decisions = append(res.Decisions, d)
		if reb != nil {
			if n := reb.Rebaselines(); n != lastReb {
				lastReb = n
				res.Rebaselines++
				b := reb.CurrentBaseline()
				jw.Rebaseline(now, 0, b.Mean, b.StdDev)
			}
		}
		if d.Evaluated || d.Triggered {
			var in core.Internals
			if instr, ok := det.(core.Instrumented); ok {
				in = instr.Internals()
			}
			jw.Decision(now, 0, d, in, false, 0)
		}
		if d.Triggered {
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

// nonFiniteClass names the fault class of a non-finite observation for
// the journal's fault record.
func nonFiniteClass(x float64) string {
	switch {
	case math.IsNaN(x):
		return "nan"
	case math.IsInf(x, 1):
		return "+inf"
	default:
		return "-inf"
	}
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
