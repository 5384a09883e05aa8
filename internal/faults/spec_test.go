package faults

import (
	"strings"
	"testing"
)

// TestParseSpecRoundTrip pins the canonical grammar: parse, render,
// re-parse, and the two parses must match.
func TestParseSpecRoundTrip(t *testing.T) {
	cases := []string{
		"",
		"nan:p=0.01",
		"inf:p=0.5,sign=-",
		"inf:p=0.5",
		"neg:p=1",
		"freeze:p=0.001,len=16",
		"drop:p=0.25",
		"dup:p=0.125",
		"reorder:p=0.0625",
		"stall:at=100,len=50",
		"slow-act:d=2.5",
		"nan:p=0.001;drop:p=0.01;stall:at=5000,len=500;slow-act:d=30",
	}
	for _, in := range cases {
		spec, err := ParseSpec(in)
		if err != nil {
			t.Errorf("ParseSpec(%q): %v", in, err)
			continue
		}
		rendered := spec.String()
		again, err := ParseSpec(rendered)
		if err != nil {
			t.Errorf("re-parse of %q (from %q): %v", rendered, in, err)
			continue
		}
		if again.String() != rendered {
			t.Errorf("canonical form of %q is not a fixed point: %q -> %q", in, rendered, again.String())
		}
	}
}

// TestParseSpecDefaults pins the default parameter values.
func TestParseSpecDefaults(t *testing.T) {
	spec, err := ParseSpec("freeze:p=0.1;inf:p=0.2")
	if err != nil {
		t.Fatal(err)
	}
	if got := spec.Clauses[0].Len; got != 8 {
		t.Errorf("freeze default len = %d, want 8", got)
	}
	if got := spec.Clauses[1].Sign; got != 1 {
		t.Errorf("inf default sign = %d, want +1", got)
	}
}

// TestParseSpecErrors pins that malformed specs fail loudly, naming the
// offending clause. The clock skew/jump and failing-action classes are
// not part of the grammar: a spec naming them fails as an unknown class
// instead of parsing and injecting nothing.
func TestParseSpecErrors(t *testing.T) {
	cases := []struct{ name, in, want string }{
		{"typo class", "nna:p=0.1", "unknown fault class"},
		{"missing p", "nan", "missing p="},
		{"p out of range", "nan:p=1.5", "out of range"},
		{"negative p", "drop:p=-0.1", "out of range"},
		{"non-numeric p", "dup:p=often", "not a finite number"},
		{"NaN p", "nan:p=NaN", "not a finite number"},
		{"unknown param", "nan:p=0.1,q=2", "unknown parameter"},
		{"duplicate param", "nan:p=0.1,p=0.2", "duplicate parameter"},
		{"not key=value", "nan:p", "not key=value"},
		{"bad sign", "inf:p=0.1,sign=x", "sign must be"},
		{"zero freeze len", "freeze:p=0.1,len=0", "not a positive integer"},
		{"stall missing at", "stall:len=5", "missing at="},
		{"stall missing len", "stall:at=5", "missing len="},
		{"slow-act missing", "slow-act", "missing d="},
		{"negative slow-act", "slow-act:d=-1", "out of range"},
		{"slow-act param", "slow-act:d=1,p=0.5", "unknown parameter"},
		{"clock skew", "skew:rate=2", "unknown fault class"},
		{"clock jump", "jump:at=1,by=2", "unknown fault class"},
		{"flaky action", "flaky-act", "unknown fault class"},
		{"dead action", "dead-act", "unknown fault class"},
	}
	for _, c := range cases {
		if _, err := ParseSpec(c.in); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: ParseSpec(%q) = %v, want an error containing %q", c.name, c.in, err, c.want)
		}
	}
}

// TestParseSpecUnknownClassListsKnown pins the discoverability of the
// error message a mistyped -faults flag produces.
func TestParseSpecUnknownClassListsKnown(t *testing.T) {
	_, err := ParseSpec("nope:p=0.1")
	if err == nil || !strings.Contains(err.Error(), "slow-act") {
		t.Errorf("unknown-class error does not list known classes: %v", err)
	}
}

// TestSpecPartitions pins the split between the stream clauses and the
// slow-act delay, a later slow-act overriding an earlier one.
func TestSpecPartitions(t *testing.T) {
	spec, err := ParseSpec("nan:p=0.1;slow-act:d=1;drop:p=0.2;slow-act:d=2.5")
	if err != nil {
		t.Fatal(err)
	}
	if got := len(spec.Stream()); got != 2 {
		t.Errorf("Stream() returned %d clauses, want 2", got)
	}
	if got := spec.ActionDelay(); got != 2.5 {
		t.Errorf("ActionDelay() = %v, want 2.5", got)
	}
	if got := (Spec{}).ActionDelay(); got != 0 {
		t.Errorf("ActionDelay() of an empty spec = %v, want 0", got)
	}
	if spec.Empty() {
		t.Error("Empty() true for a populated spec")
	}
	empty, _ := ParseSpec("  ")
	if !empty.Empty() {
		t.Error("Empty() false for a blank spec")
	}
}
