package ecommerce

import (
	"io"
	"testing"

	"rejuv/internal/core"
	"rejuv/internal/journal"
	"rejuv/internal/metrics"
	"rejuv/internal/sched"
)

// paperSRAA returns the Fig. 16 SRAA (2, 5, 3) detector at the paper's
// baseline.
func paperSRAA(t *testing.T) core.Detector {
	t.Helper()
	det, err := core.NewSRAA(core.SRAAConfig{
		SampleSize: 2, Buckets: 5, Depth: 3,
		Baseline: core.Baseline{Mean: 5, StdDev: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	return det
}

// stepBatch is how many events one AllocsPerRun iteration fires: a
// transaction takes about three events, so a per-transaction
// allocation shows up as hundreds per batch instead of being truncated
// away by AllocsPerRun's integer average.
const stepBatch = 1_000

// warmModel returns a model at load 8 with the paper's aging mechanisms
// and an SRAA detector, armed and run far enough that its event slab,
// job slab and queues have reached their working size.
func warmModel(t *testing.T, instrument bool) *Model {
	t.Helper()
	m, err := New(Config{ArrivalRate: 8 * 0.2, Transactions: 1 << 40, Seed: 3, Stream: 4_001}, paperSRAA(t))
	if err != nil {
		t.Fatal(err)
	}
	if instrument {
		m.Instrument(metrics.NewRegistry())
		jw := journal.NewWriter(io.Discard, journal.Meta{CreatedBy: "dispatch_test"})
		m.Journal(jw)
		m.JournalKernel(jw)
	}
	m.start()
	for i := 0; i < 200_000; i++ {
		m.sim.Step()
	}
	if m.res.Rejuvenations == 0 || m.st.gcCount() == 0 {
		t.Fatalf("warm-up saw %d rejuvenations and %d GCs; the pin must cover both", m.res.Rejuvenations, m.st.gcCount())
	}
	return m
}

func assertStepsDoNotAllocate(t *testing.T, what string, step func() bool) {
	t.Helper()
	allocs := testing.AllocsPerRun(50, func() {
		for i := 0; i < stepBatch; i++ {
			step()
		}
	})
	if allocs != 0 {
		t.Fatalf("%s: %v allocations per %d steady-state events, want 0", what, allocs, stepBatch)
	}
}

func TestModelStepDoesNotAllocate(t *testing.T) {
	m := warmModel(t, false)
	assertStepsDoNotAllocate(t, "uninstrumented model", m.sim.Step)
}

func TestInstrumentedModelStepDoesNotAllocate(t *testing.T) {
	m := warmModel(t, true)
	assertStepsDoNotAllocate(t, "instrumented, journaled model", m.sim.Step)
}

// TestClusterStepDoesNotAllocate pins the cluster's per-transaction
// path: routing, four stations, GC stalls and a detector per host. The
// detectors' baseline is set far above any response time, so no
// rejuvenation request reaches the governor, whose transition groups
// are allocated per request by contract.
func TestClusterStepDoesNotAllocate(t *testing.T) {
	c, err := NewCluster(ClusterConfig{
		Hosts: 4, ArrivalRate: 4 * 1.6, Transactions: 1 << 40, Seed: 21,
	}, func(int) (core.Detector, error) {
		return core.NewSRAA(core.SRAAConfig{
			SampleSize: 2, Buckets: 5, Depth: 3,
			Baseline: core.Baseline{Mean: 1e9, StdDev: 1},
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	c.scheduleArrival()
	for i := 0; i < 200_000; i++ {
		c.sim.Step()
	}
	if c.stations[0].gcCount() == 0 {
		t.Fatal("warm-up saw no GC stall; the pin must cover them")
	}
	assertStepsDoNotAllocate(t, "cluster", c.sim.Step)
}

// liveJobs counts the jobs of p not on its free list.
func liveJobs(t *testing.T, p *jobSlab) int {
	t.Helper()
	free := 0
	for id := p.free; id != noJob; id = p.jobs[id].next {
		free++
		if free > len(p.jobs) {
			t.Fatal("job free list has a cycle")
		}
	}
	return len(p.jobs) - free
}

// TestJobConservation checks that every job the slab hands out is
// either on a station (queued or running) or back on the free list —
// in particular that rejuvenation returns the jobs it kills, queued and
// running alike, instead of leaking them.
func TestJobConservation(t *testing.T) {
	t.Run("model", func(t *testing.T) {
		m, err := New(Config{
			ArrivalRate:          8 * 0.2,
			RejuvenationPause:    60,
			RejuvenationInterval: 300,
			Transactions:         1 << 40,
			Seed:                 7,
		}, paperSRAA(t))
		if err != nil {
			t.Fatal(err)
		}
		m.start()
		paused := false
		for i := 0; i < 100_000; i++ {
			m.sim.Step()
			paused = paused || m.paused
			if got, want := liveJobs(t, m.jobs), m.st.active(); got != want {
				t.Fatalf("event %d: %d live jobs in the slab, station holds %d", i, got, want)
			}
		}
		if m.res.Completed == 0 || m.res.Lost == 0 || m.st.gcCount() == 0 || !paused {
			t.Fatalf("run did not exercise completions (%d), kills (%d), GCs (%d) and a pause (%v)",
				m.res.Completed, m.res.Lost, m.st.gcCount(), paused)
		}
	})
	t.Run("cluster", func(t *testing.T) {
		sc := sched.Scheduled(4, 30)
		cfg := scheduledClusterConfig(&sc)
		c, err := NewCluster(cfg, paperDetectorFactory(t))
		if err != nil {
			t.Fatal(err)
		}
		full, held := 0, false
		c.OnRejuvenate = func(_ float64, _, killed int) {
			if killed > 0 {
				full++
			}
		}
		c.scheduleArrival()
		for i := 0; i < 40_000; i++ {
			c.sim.Step()
			active := 0
			for h, st := range c.stations {
				active += st.active()
				held = held || !c.inService[h] && st.queueLen() > 0
			}
			if got := liveJobs(t, c.jobs); got != active {
				t.Fatalf("event %d: %d live jobs in the slab, stations hold %d", i, got, active)
			}
		}
		if c.res.Completed == 0 || full == 0 || c.res.Partial == 0 || !held {
			t.Fatalf("run did not exercise completions (%d), killing restarts (%d), partial actions (%d) and a host holding arrivals (%v)",
				c.res.Completed, full, c.res.Partial, held)
		}
	})
}
