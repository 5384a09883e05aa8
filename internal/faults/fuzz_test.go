package faults

import "testing"

// FuzzParseSpec hammers the -faults grammar: the parser must never
// panic, and any spec it accepts must render to a canonical form that
// re-parses to the same canonical form (a fixed point).
func FuzzParseSpec(f *testing.F) {
	f.Add("")
	f.Add("nan:p=0.01")
	f.Add("inf:p=0.5,sign=-;drop:p=0.1")
	f.Add("freeze:p=0.001,len=16;stall:at=100,len=50")
	f.Add("neg:p=0.5;dup:p=0.25;reorder:p=0.125")
	f.Add("slow-act:d=2.5;stall:at=0,len=1")
	f.Add("nan:p=1e-300")
	f.Add(";;;")
	f.Add("nan : p = 0.1")
	f.Fuzz(func(t *testing.T, in string) {
		spec, err := ParseSpec(in)
		if err != nil {
			return
		}
		rendered := spec.String()
		again, err := ParseSpec(rendered)
		if err != nil {
			t.Fatalf("canonical form %q of accepted input %q does not re-parse: %v", rendered, in, err)
		}
		if got := again.String(); got != rendered {
			t.Fatalf("canonical form is not a fixed point: %q -> %q -> %q", in, rendered, got)
		}
	})
}
