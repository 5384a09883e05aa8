package experiment

import (
	"math"
	"runtime"
	"slices"
	"testing"
)

func TestClusterSweepShape(t *testing.T) {
	series, err := RunClusterSweep(ClusterSweepConfig{
		Hosts:        []int{1, 2},
		Loads:        []float64{2, 8},
		Transactions: 5_000,
		Replications: 1,
		Seed:         1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 2 {
		t.Fatalf("%d series, want 2", len(series))
	}
	for _, s := range series {
		if len(s.Points) != 2 {
			t.Fatalf("hosts=%d: %d points, want 2", s.Hosts, len(s.Points))
		}
		for _, p := range s.Points {
			if p.AvgRT <= 0 {
				t.Fatalf("hosts=%d load=%v: avg RT %v", s.Hosts, p.Load, p.AvgRT)
			}
			if p.LossFraction < 0 || p.LossFraction > 1 {
				t.Fatalf("hosts=%d load=%v: loss %v", s.Hosts, p.Load, p.LossFraction)
			}
		}
		// Response time must not improve as per-host load rises.
		if s.Points[1].AvgRT < s.Points[0].AvgRT {
			t.Fatalf("hosts=%d: RT fell with load: %v -> %v",
				s.Hosts, s.Points[0].AvgRT, s.Points[1].AvgRT)
		}
	}
}

func TestClusterSweepDefaults(t *testing.T) {
	cfg := ClusterSweepConfig{}.defaulted()
	if len(cfg.Hosts) == 0 || cfg.Spec.Algorithm != SRAA ||
		cfg.RejuvenationPause != 30 || cfg.Replications == 0 {
		t.Fatalf("defaults incomplete: %+v", cfg)
	}
}

func TestBurstSweepDiscriminates(t *testing.T) {
	series, err := RunBurstSweep(BurstSweepConfig{
		Factors:      []float64{1, 3.5},
		Transactions: 30_000,
		Replications: 1,
		Seed:         1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 2 {
		t.Fatalf("%d series, want 2", len(series))
	}
	var multi, single BurstSeries
	for _, s := range series {
		if s.Spec.K > 1 {
			multi = s
		} else {
			single = s
		}
	}
	if multi.Spec.Algorithm == "" || single.Spec.Algorithm == "" {
		t.Fatal("default spec pair missing a multi- or single-bucket config")
	}
	// At factor 1 (no bursts, no aging) nobody should false-alarm much;
	// at factor 3.5 the single-bucket config must false-alarm far more
	// than the multi-bucket one.
	if multi.Points[1].FalseAlarmsPer100k*10 > single.Points[1].FalseAlarmsPer100k {
		t.Fatalf("multi %v vs single %v false alarms at factor 3.5",
			multi.Points[1].FalseAlarmsPer100k, single.Points[1].FalseAlarmsPer100k)
	}
	if multi.Points[0].FalseAlarmsPer100k != 0 {
		t.Fatalf("multi-bucket false-alarmed with no bursts: %v", multi.Points[0].FalseAlarmsPer100k)
	}
}

func TestBurstSweepPropagatesErrors(t *testing.T) {
	_, err := RunBurstSweep(BurstSweepConfig{
		Specs:        []Spec{{Algorithm: "bogus"}},
		Factors:      []float64{1},
		Transactions: 1_000,
		Replications: 1,
	})
	if err == nil {
		t.Fatal("bogus spec accepted")
	}
}

func TestClusterSweepPropagatesErrors(t *testing.T) {
	_, err := RunClusterSweep(ClusterSweepConfig{
		Hosts:        []int{1},
		Loads:        []float64{1},
		Spec:         Spec{Algorithm: "bogus"},
		Transactions: 1_000,
		Replications: 1,
	})
	if err == nil {
		t.Fatal("bogus spec accepted")
	}
}

// TestExtensionSweepsIndependentOfGOMAXPROCS pins that the extension
// sweeps fold their cell grids in order: every field of every point is
// bit-identical whether the cells ran on one processor or three.
func TestExtensionSweepsIndependentOfGOMAXPROCS(t *testing.T) {
	run := func(procs int) []uint64 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		cluster, err := RunClusterSweep(ClusterSweepConfig{
			Hosts: []int{1, 2}, Loads: []float64{2, 8},
			Transactions: 3_000, Replications: 3, Seed: 5,
		})
		if err != nil {
			t.Fatal(err)
		}
		bursts, err := RunBurstSweep(BurstSweepConfig{
			Factors: []float64{1, 3}, Transactions: 5_000, Replications: 2, Seed: 5,
		})
		if err != nil {
			t.Fatal(err)
		}
		var bits []uint64
		add := func(fs ...float64) {
			for _, f := range fs {
				bits = append(bits, math.Float64bits(f))
			}
		}
		for _, s := range cluster {
			for _, p := range s.Points {
				add(float64(s.Hosts), p.Load, p.AvgRT, p.LossFraction, p.Rejuvenations, p.Deferred)
			}
		}
		for _, s := range bursts {
			for _, p := range s.Points {
				add(float64(s.Spec.K), p.Factor, p.FalseAlarmsPer100k, p.LossFraction)
			}
		}
		return bits
	}
	one, three := run(1), run(3)
	if len(one) == 0 || !slices.Equal(one, three) {
		t.Fatalf("extension sweeps differ between GOMAXPROCS 1 and 3:\n%x\n%x", one, three)
	}
}
