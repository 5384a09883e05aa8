package experiment

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"rejuv/internal/stats"
	"rejuv/internal/xrand"
)

// repValues is a deterministic per-replication body: a pinned stream
// per rep index, so any execution order yields the same per-rep data.
func repValues(rep int) ([]float64, error) {
	r := xrand.NewStream(99, uint64(rep)+1)
	vs := make([]float64, 50)
	for i := range vs {
		vs[i] = r.Norm()
	}
	return vs, nil
}

// TestRunDeterministicAcrossWorkers is the engine's core guarantee:
// the pooled values and streaming moments are bit-identical no matter
// how many workers executed the bodies.
func TestRunDeterministicAcrossWorkers(t *testing.T) {
	var want string
	for _, workers := range []int{1, 4, 16} {
		var values []float64
		var moments stats.Welford
		err := Run(workers, 37, repValues, func(_ int, vs []float64) error {
			values = append(values, vs...)
			for _, v := range vs {
				moments.Add(v)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		var sb strings.Builder
		fmt.Fprintf(&sb, "n=%d mean=%x var=%x;", len(values), math.Float64bits(moments.Mean()), math.Float64bits(moments.Var()))
		for _, v := range values {
			fmt.Fprintf(&sb, "%x,", math.Float64bits(v))
		}
		got := sb.String()
		if want == "" {
			want = got
			continue
		}
		if got != want {
			t.Fatalf("workers=%d produced a different pool than workers=1", workers)
		}
	}
}

// TestRunFoldsInReplicationOrder pins the ordered-fold contract
// directly: fold sees indexes 0,1,2,... regardless of completion order.
func TestRunFoldsInReplicationOrder(t *testing.T) {
	var seen []int
	err := Run(8, 100,
		func(rep int) (int, error) { return rep * rep, nil },
		func(rep int, v int) error {
			if v != rep*rep {
				return fmt.Errorf("rep %d got value %d", rep, v)
			}
			seen = append(seen, rep)
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	for i, rep := range seen {
		if rep != i {
			t.Fatalf("fold order %v is not replication order", seen)
		}
	}
	if len(seen) != 100 {
		t.Fatalf("folded %d replications, want 100", len(seen))
	}
}

// TestRunErrorCarriesReplicationIndex checks that the first failing
// replication (in replication order) is the one reported.
func TestRunErrorCarriesReplicationIndex(t *testing.T) {
	boom := errors.New("boom")
	err := Run(4, 20,
		func(rep int) (int, error) {
			if rep >= 7 {
				return 0, boom
			}
			return rep, nil
		},
		func(int, int) error { return nil })
	if err == nil {
		t.Fatal("error swallowed")
	}
	if !errors.Is(err, boom) {
		t.Fatalf("error chain lost the cause: %v", err)
	}
	if !strings.Contains(err.Error(), "replication 7") {
		t.Fatalf("error %q does not name replication 7", err)
	}
	// Fold errors propagate too.
	err = Run(4, 5,
		func(rep int) (int, error) { return rep, nil },
		func(rep int, _ int) error {
			if rep == 3 {
				return boom
			}
			return nil
		})
	if err == nil || !strings.Contains(err.Error(), "folding replication 3") {
		t.Fatalf("fold error = %v, want folding replication 3", err)
	}
}

// TestRunZeroAndNegativeReps checks the degenerate inputs.
func TestRunZeroAndNegativeReps(t *testing.T) {
	calls := 0
	for _, reps := range []int{0, -3} {
		err := Run(0, reps,
			func(int) (int, error) { calls++; return 0, nil },
			func(int, int) error { calls++; return nil })
		if err != nil || calls != 0 {
			t.Fatalf("reps=%d: err=%v calls=%d", reps, err, calls)
		}
	}
}
