package xrand

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// updateGolden regenerates the stream pin under testdata instead of
// comparing against it:
//
//	go test ./internal/xrand -run TestStreamPinned -update-golden
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata stream pin")

// pinCall is one generator call of the pinned interleaving; it returns
// the drawn value formatted as hex bits.
type pinCall struct {
	name string
	draw func(r *Rand) string
}

func hexFloat(v float64) string { return fmt.Sprintf("%016x", math.Float64bits(v)) }

var pinCalls = []pinCall{
	{"Uint64", func(r *Rand) string { return fmt.Sprintf("%016x", r.Uint64()) }},
	{"Float64", func(r *Rand) string { return hexFloat(r.Float64()) }},
	{"Float64Open", func(r *Rand) string { return hexFloat(r.Float64Open()) }},
	{"Exp(0.2)", func(r *Rand) string { return hexFloat(r.Exp(0.2)) }},
	{"Exp(1.6)", func(r *Rand) string { return hexFloat(r.Exp(1.6)) }},
	{"Exp(3.7)", func(r *Rand) string { return hexFloat(r.Exp(3.7)) }},
	{"Intn(16)", func(r *Rand) string { return fmt.Sprintf("%x", r.Intn(16)) }},
	{"Intn(1000)", func(r *Rand) string { return fmt.Sprintf("%x", r.Intn(1000)) }},
	{"Norm", func(r *Rand) string { return hexFloat(r.Norm()) }},
	{"Perm(5)", func(r *Rand) string { return fmt.Sprintf("%x", r.Perm(5)) }},
}

// pinSchedule is the fixed call interleaving: 288 calls (several
// 32-output blocks' worth of draws). The first and last stretches step
// through every call kind in a shifting order; the middle stretch is 64
// consecutive exponential draws at alternating rates, the simulator's
// dominant pattern, so runs of Exp cross block boundaries too.
func pinSchedule() []int {
	const n, expFrom, expTo = 288, 112, 176
	idx := make([]int, n)
	for i := range idx {
		idx[i] = (i*7 + i/len(pinCalls)) % len(pinCalls)
		if i >= expFrom && i < expTo {
			idx[i] = 3 + i%3 // pinCalls[3:6] are the three Exp rates
		}
	}
	return idx
}

// streamPin draws the pinned interleaving from every pinned (seed,
// stream) pair and formats one line per call.
func streamPin() string {
	var out strings.Builder
	sched := pinSchedule()
	for _, seed := range []uint64{1, 3, 11} {
		for _, stream := range []uint64{0, 1, 1001} {
			fmt.Fprintf(&out, "# seed=%d stream=%d\n", seed, stream)
			r := NewStream(seed, stream)
			for i, k := range sched {
				fmt.Fprintf(&out, "%d %s %s\n", i, pinCalls[k].name, pinCalls[k].draw(r))
			}
		}
	}
	return out.String()
}

// TestStreamPinned pins every value a fixed interleaving of all the
// generator's methods draws, as hex bits, for three seeds on three
// streams. Any change to the PCG step, the output function, the order in
// which methods consume outputs, or the samplers' arithmetic shows up
// as a diff of testdata/stream_pin.txt.
func TestStreamPinned(t *testing.T) {
	got := streamPin()
	path := filepath.Join("testdata", "stream_pin.txt")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing pin (run go test ./internal/xrand -update-golden): %v", err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("stream diverged from %s at line %d:\ngot:  %s\nwant: %s", path, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("stream pin %s has %d lines, got %d", path, len(wl), len(gl))
}
