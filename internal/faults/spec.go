// Package faults is the deterministic fault-injection layer of the
// repository: a seed-driven injector that corrupts, drops, duplicates,
// reorders and stalls the observation stream feeding a detector, plus
// a slow-act delay that stretches every rejuvenation action.
//
// Everything is a pure function of the fault Spec, the seed and the
// input stream: running the same faulted scenario twice yields the same
// injected faults in the same places, so faulted runs are journalable
// and replay-verifiable exactly like clean ones. Randomness comes from
// a dedicated internal/xrand stream; the wall clock is never consulted.
//
// Specs have a compact textual grammar for CLI flags
// (rejuvsim -faults):
//
//	spec    = clause *( ";" clause )
//	clause  = class [ ":" param *( "," param ) ]
//	param   = key "=" value
//
// For example:
//
//	nan:p=0.001;drop:p=0.01;stall:at=5000,len=500;slow-act:d=30
//
// See ParseSpec for the per-class parameters.
package faults

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Class names one injectable fault class.
type Class string

// The fault classes. The first group corrupts or reshapes the
// observation stream; slow-act delays the rejuvenation action.
const (
	// ClassNaN replaces an observation with NaN (probability p).
	ClassNaN Class = "nan"
	// ClassInf replaces an observation with +Inf, or -Inf under sign=-
	// (probability p).
	ClassInf Class = "inf"
	// ClassNeg negates an observation (probability p), producing the
	// physically impossible negative response time a buggy probe emits.
	ClassNeg Class = "neg"
	// ClassFreeze starts a frozen run (probability p): the next len
	// observations repeat the last value seen, the signature of a stuck
	// collector (default len 8).
	ClassFreeze Class = "freeze"
	// ClassDrop discards an observation (probability p).
	ClassDrop Class = "drop"
	// ClassDup emits an observation twice (probability p).
	ClassDup Class = "dup"
	// ClassReorder holds an observation back one slot, swapping it with
	// its successor (probability p).
	ClassReorder Class = "reorder"
	// ClassStall silences the probe for a window: observations with
	// 0-based index in [at, at+len) are swallowed entirely.
	ClassStall Class = "stall"

	// ClassSlowAct delays every rejuvenation action attempt by d seconds.
	ClassSlowAct Class = "slow-act"
)

// Clause is one parsed fault clause.
type Clause struct {
	// Class selects the fault.
	Class Class
	// P is the per-observation probability for the probabilistic stream
	// classes (nan, inf, neg, freeze, drop, dup, reorder).
	P float64
	// At is the 0-based observation index where a stall window opens.
	At float64
	// Len is the stall window length in observations, or the frozen-run
	// length for freeze.
	Len int
	// Sign selects -Inf for the inf class (+1 default).
	Sign int
	// Dur is the slow-act delay, in seconds.
	Dur float64
}

// Spec is a parsed fault specification: an ordered list of clauses.
// Clause order is semantic — the injector applies value corruptions and
// checks emission faults in spec order.
type Spec struct {
	// Clauses holds the parsed clauses in input order.
	Clauses []Clause
}

// Empty reports whether the spec injects nothing.
func (s Spec) Empty() bool { return len(s.Clauses) == 0 }

// streamClasses marks classes that act on the observation stream.
var streamClasses = map[Class]bool{
	ClassNaN: true, ClassInf: true, ClassNeg: true, ClassFreeze: true,
	ClassDrop: true, ClassDup: true, ClassReorder: true, ClassStall: true,
}

// Stream returns the clauses that act on the observation stream, in
// spec order.
func (s Spec) Stream() []Clause {
	var out []Clause
	for _, c := range s.Clauses {
		if streamClasses[c.Class] {
			out = append(out, c)
		}
	}
	return out
}

// ActionDelay returns the slow-act delay in seconds, 0 without one. A
// later slow-act clause overrides an earlier one.
func (s Spec) ActionDelay() float64 {
	var d float64
	for _, c := range s.Clauses {
		if c.Class == ClassSlowAct {
			d = c.Dur
		}
	}
	return d
}

// String renders the spec in the canonical grammar; ParseSpec round-
// trips it.
func (s Spec) String() string {
	parts := make([]string, len(s.Clauses))
	for i, c := range s.Clauses {
		parts[i] = c.String()
	}
	return strings.Join(parts, ";")
}

// String renders one clause in the canonical grammar.
func (c Clause) String() string {
	var params []string
	add := func(key string, val string) { params = append(params, key+"="+val) }
	switch c.Class {
	case ClassNaN, ClassNeg, ClassDrop, ClassDup, ClassReorder:
		add("p", formatFloat(c.P))
	case ClassInf:
		add("p", formatFloat(c.P))
		if c.Sign < 0 {
			add("sign", "-")
		}
	case ClassFreeze:
		add("p", formatFloat(c.P))
		add("len", strconv.Itoa(c.Len))
	case ClassStall:
		add("at", formatFloat(c.At))
		add("len", strconv.Itoa(c.Len))
	case ClassSlowAct:
		add("d", formatFloat(c.Dur))
	}
	return string(c.Class) + ":" + strings.Join(params, ",")
}

// formatFloat renders a parameter value compactly.
func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// ParseSpec parses the textual fault grammar. Per-class parameters:
//
//	nan, neg, drop, dup, reorder:  p=<probability>
//	inf:                            p=<probability> [sign=-]
//	freeze:                         p=<probability> [len=<observations>]
//	stall:                          at=<index> len=<observations>
//	slow-act:                       d=<seconds>
//
// Unknown classes, unknown parameters, malformed values and
// out-of-range probabilities are errors, so a typo in a -faults flag
// fails loudly instead of silently injecting nothing.
func ParseSpec(text string) (Spec, error) {
	var spec Spec
	text = strings.TrimSpace(text)
	if text == "" {
		return spec, nil
	}
	for _, part := range strings.Split(text, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		clause, err := parseClause(part)
		if err != nil {
			return Spec{}, err
		}
		spec.Clauses = append(spec.Clauses, clause)
	}
	return spec, nil
}

// parseClause parses one class[:k=v[,k=v]...] clause.
func parseClause(text string) (Clause, error) {
	name, rest, _ := strings.Cut(text, ":")
	c := Clause{Class: Class(strings.TrimSpace(name)), Sign: 1}
	if !streamClasses[c.Class] && c.Class != ClassSlowAct {
		return Clause{}, fmt.Errorf("faults: unknown fault class %q (known: %s)", name, knownClasses())
	}
	params := map[string]string{}
	if rest != "" {
		for _, kv := range strings.Split(rest, ",") {
			key, val, ok := strings.Cut(kv, "=")
			if !ok {
				return Clause{}, fmt.Errorf("faults: %s: parameter %q is not key=value", c.Class, kv)
			}
			key = strings.TrimSpace(key)
			if _, dup := params[key]; dup {
				return Clause{}, fmt.Errorf("faults: %s: duplicate parameter %q", c.Class, key)
			}
			params[key] = strings.TrimSpace(val)
		}
	}
	take := func(key string) (string, bool) {
		v, ok := params[key]
		delete(params, key)
		return v, ok
	}
	var err error
	prob := func() {
		if err == nil {
			c.P, err = parseProb(c.Class, take)
		}
	}
	switch c.Class {
	case ClassNaN, ClassNeg, ClassDrop, ClassDup, ClassReorder:
		prob()
	case ClassInf:
		prob()
		if v, ok := take("sign"); ok {
			switch v {
			case "-":
				c.Sign = -1
			case "+":
				c.Sign = 1
			default:
				err = fmt.Errorf("faults: inf: sign must be + or -, got %q", v)
			}
		}
	case ClassFreeze:
		prob()
		c.Len = 8
		if v, ok := take("len"); ok && err == nil {
			c.Len, err = parseCount(c.Class, "len", v)
		}
	case ClassStall:
		if v, ok := take("at"); ok {
			c.At, err = parseNum(c.Class, "at", v, 0, math.MaxFloat64)
		} else {
			err = fmt.Errorf("faults: stall: missing at=<index>")
		}
		if v, ok := take("len"); ok && err == nil {
			c.Len, err = parseCount(c.Class, "len", v)
		} else if err == nil {
			err = fmt.Errorf("faults: stall: missing len=<observations>")
		}
	case ClassSlowAct:
		if v, ok := take("d"); ok {
			c.Dur, err = parseNum(c.Class, "d", v, 0, math.MaxFloat64)
		} else {
			err = fmt.Errorf("faults: slow-act: missing d=<seconds>")
		}
	}
	if err != nil {
		return Clause{}, err
	}
	if len(params) > 0 {
		keys := make([]string, 0, len(params))
		for k := range params {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		return Clause{}, fmt.Errorf("faults: %s: unknown parameter(s) %s", c.Class, strings.Join(keys, ", "))
	}
	return c, nil
}

// parseProb parses the mandatory p=<probability> parameter.
func parseProb(class Class, take func(string) (string, bool)) (float64, error) {
	v, ok := take("p")
	if !ok {
		return 0, fmt.Errorf("faults: %s: missing p=<probability>", class)
	}
	return parseNum(class, "p", v, 0, 1)
}

// parseNum parses a float parameter and range-checks it.
func parseNum(class Class, key, val string, lo, hi float64) (float64, error) {
	f, err := strconv.ParseFloat(val, 64)
	if err != nil || math.IsNaN(f) || math.IsInf(f, 0) {
		return 0, fmt.Errorf("faults: %s: %s=%q is not a finite number", class, key, val)
	}
	if f < lo || f > hi {
		return 0, fmt.Errorf("faults: %s: %s=%v out of range [%g, %g]", class, key, f, lo, hi)
	}
	return f, nil
}

// parseCount parses a positive integer parameter.
func parseCount(class Class, key, val string) (int, error) {
	n, err := strconv.Atoi(val)
	if err != nil || n <= 0 {
		return 0, fmt.Errorf("faults: %s: %s=%q is not a positive integer", class, key, val)
	}
	return n, nil
}

// knownClasses lists every class name for error messages.
func knownClasses() string {
	return strings.Join([]string{
		string(ClassNaN), string(ClassInf), string(ClassNeg), string(ClassFreeze),
		string(ClassDrop), string(ClassDup), string(ClassReorder), string(ClassStall),
		string(ClassSlowAct),
	}, ", ")
}
