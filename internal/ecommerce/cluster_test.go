package ecommerce

import (
	"bytes"
	"testing"

	"rejuv/internal/core"
	"rejuv/internal/des"
	"rejuv/internal/journal"
	"rejuv/internal/sched"
	"rejuv/internal/xrand"
)

func paperDetectorFactory(t *testing.T) func(int) (core.Detector, error) {
	t.Helper()
	return func(int) (core.Detector, error) {
		return core.NewSRAA(core.SRAAConfig{
			SampleSize: 2, Buckets: 5, Depth: 3,
			Baseline: core.Baseline{Mean: 5, StdDev: 5},
		})
	}
}

func TestClusterValidation(t *testing.T) {
	tests := []struct {
		name string
		cfg  ClusterConfig
	}{
		{"zero hosts", ClusterConfig{Hosts: 0, ArrivalRate: 1}},
		{"zero arrival rate", ClusterConfig{Hosts: 2}},
		{"negative pause", ClusterConfig{Hosts: 2, ArrivalRate: 1, RejuvenationPause: -1}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := NewCluster(tt.cfg, nil); err == nil {
				t.Errorf("invalid config accepted: %+v", tt.cfg)
			}
		})
	}
}

func TestClusterConservation(t *testing.T) {
	c, err := NewCluster(ClusterConfig{
		Hosts:        3,
		ArrivalRate:  3 * 1.6,
		Transactions: 60_000,
		Seed:         1,
	}, paperDetectorFactory(t))
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	var inside int64
	for _, st := range c.stations {
		inside += int64(st.active())
	}
	if res.Arrived != res.Completed+res.Lost+inside {
		t.Fatalf("conservation violated: %d != %d + %d + %d",
			res.Arrived, res.Completed, res.Lost, inside)
	}
	// Per-host counters must add up to the cluster totals.
	var perArrived, perCompleted, perLost, perRejuv int64
	for _, h := range res.PerHost {
		perArrived += h.Arrived
		perCompleted += h.Completed
		perLost += h.Lost
		perRejuv += h.Rejuvenations
	}
	if perArrived != res.Arrived || perCompleted != res.Completed ||
		perLost != res.Lost || perRejuv != res.Rejuvenations {
		t.Fatalf("per-host sums (%d,%d,%d,%d) != totals (%d,%d,%d,%d)",
			perArrived, perCompleted, perLost, perRejuv,
			res.Arrived, res.Completed, res.Lost, res.Rejuvenations)
	}
}

func TestClusterLeastActiveBalancesLoad(t *testing.T) {
	c, err := NewCluster(ClusterConfig{
		Hosts:        4,
		ArrivalRate:  4 * 1.0,
		Routing:      RouteLeastActive,
		Transactions: 40_000,
		Seed:         3,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	want := res.Arrived / 4
	for h, r := range res.PerHost {
		if r.Arrived < want*8/10 || r.Arrived > want*12/10 {
			t.Fatalf("host %d received %d arrivals, want ~%d", h, r.Arrived, want)
		}
	}
}

func TestClusterRoundRobinIsExact(t *testing.T) {
	c, err := NewCluster(ClusterConfig{
		Hosts:        3,
		ArrivalRate:  3,
		Routing:      RouteRoundRobin,
		Transactions: 9_000,
		Seed:         5,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	// With no host ever out of service, round robin splits arrivals
	// within one transaction of each other.
	for h := 1; h < 3; h++ {
		diff := res.PerHost[h].Arrived - res.PerHost[0].Arrived
		if diff < -1 || diff > 1 {
			t.Fatalf("round robin skewed: %v", []int64{
				res.PerHost[0].Arrived, res.PerHost[1].Arrived, res.PerHost[2].Arrived})
		}
	}
}

func TestClusterSingleRejuvenationAtATime(t *testing.T) {
	c, err := NewCluster(ClusterConfig{
		Hosts:             3,
		ArrivalRate:       3 * 1.8,
		RejuvenationPause: 30,
		Transactions:      60_000,
		Seed:              7,
	}, paperDetectorFactory(t))
	if err != nil {
		t.Fatal(err)
	}
	outOfService := 0
	maxOut := 0
	c.OnRejuvenate = func(float64, int, int) {
		outOfService = 0
		for h := range c.inService {
			if !c.inService[h] {
				outOfService++
			}
		}
		if outOfService > maxOut {
			maxOut = outOfService
		}
	}
	res, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Rejuvenations == 0 {
		t.Fatal("no rejuvenations happened")
	}
	if maxOut > 1 {
		t.Fatalf("%d hosts out of service at once, want at most 1", maxOut)
	}
}

func TestClusterDeferredRejuvenations(t *testing.T) {
	// At heavy load with a long pause, concurrent triggers must defer.
	c, err := NewCluster(ClusterConfig{
		Hosts:             4,
		ArrivalRate:       4 * 1.8,
		RejuvenationPause: 120,
		Transactions:      80_000,
		Seed:              9,
	}, paperDetectorFactory(t))
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Rejuvenations == 0 {
		t.Fatal("no rejuvenations")
	}
	if res.Deferred == 0 {
		t.Fatal("expected at least one deferred rejuvenation under these conditions")
	}
}

func TestClusterInstantRejuvenationNeverDefers(t *testing.T) {
	c, err := NewCluster(ClusterConfig{
		Hosts:        2,
		ArrivalRate:  2 * 1.8,
		Transactions: 40_000,
		Seed:         11,
	}, paperDetectorFactory(t))
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Deferred != 0 {
		t.Fatalf("instantaneous rejuvenation deferred %d times", res.Deferred)
	}
}

func TestClusterDetectorFactoryError(t *testing.T) {
	_, err := NewCluster(ClusterConfig{Hosts: 2, ArrivalRate: 1}, func(int) (core.Detector, error) {
		return core.NewSRAA(core.SRAAConfig{}) // invalid
	})
	if err == nil {
		t.Fatal("factory error not propagated")
	}
}

func TestClusterSingleUse(t *testing.T) {
	c, err := NewCluster(ClusterConfig{Hosts: 1, ArrivalRate: 1, Transactions: 500, Seed: 13}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(); err == nil {
		t.Fatal("second Run accepted")
	}
}

func TestClusterDeterminism(t *testing.T) {
	run := func() ClusterResult {
		c, err := NewCluster(ClusterConfig{
			Hosts:        2,
			ArrivalRate:  2.4,
			Transactions: 20_000,
			Seed:         15,
		}, paperDetectorFactory(t))
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Completed != b.Completed || a.Lost != b.Lost || a.AvgRT() != b.AvgRT() {
		t.Fatal("identical cluster runs diverged")
	}
}

func TestStationPartialRejuvenation(t *testing.T) {
	cfg := Config{ArrivalRate: 1}.Default()
	st := newStation(cfg, des.New(nil), xrand.NewStream(1, 0), newJobSlab(), 0)
	st.virtualAge = 100
	st.heapMB = cfg.HeapMB - 1000
	if killed := st.rejuvenatePartial(0.25, 5); killed != 0 {
		t.Fatalf("partial action killed %d transactions", killed)
	}
	if st.virtualAge != 75 {
		t.Errorf("virtual age = %v, want 75 (rolled back by rho)", st.virtualAge)
	}
	if st.heapMB != cfg.HeapMB-750 {
		t.Errorf("heap = %v, want %v (rho of the consumed heap restored)", st.heapMB, cfg.HeapMB-750)
	}
	// A larger rho rolls back more: the conformance monotonicity law in
	// miniature.
	st2 := newStation(cfg, des.New(nil), xrand.NewStream(1, 0), newJobSlab(), 0)
	st2.virtualAge = 100
	st2.heapMB = cfg.HeapMB - 1000
	st2.rejuvenatePartial(0.5, 10)
	if st2.virtualAge >= st.virtualAge || st2.heapMB <= st.heapMB {
		t.Errorf("rho 0.5 (age %v, heap %v) not strictly better than rho 0.25 (age %v, heap %v)",
			st2.virtualAge, st2.heapMB, st.virtualAge, st.heapMB)
	}
	// rho >= 1 degenerates to the full routine: good as new.
	st.rejuvenatePartial(1, 0)
	if st.virtualAge != 0 || st.heapMB != cfg.HeapMB {
		t.Errorf("full action left age %v heap %v", st.virtualAge, st.heapMB)
	}
}

// scheduledClusterConfig is the tiered, deadline-aware policy the
// scheduler tests run: LeakyGC aging so partial heap restoration has a
// measurable benefit, proactive requests so sub-trigger levels map to
// partial tiers.
func scheduledClusterConfig(sc *sched.Config) ClusterConfig {
	return ClusterConfig{
		Hosts:             4,
		ArrivalRate:       4 * 1.6,
		Host:              Config{LeakyGC: true},
		RejuvenationPause: 30,
		Scheduler:         sc,
		ProactiveLevel:    3,
		DeadlineAware:     true,
		Transactions:      60_000,
		Seed:              21,
	}
}

func TestClusterScheduledPartialBeatsFullRestart(t *testing.T) {
	run := func(sc *sched.Config, proactive int) ClusterResult {
		cfg := scheduledClusterConfig(sc)
		cfg.ProactiveLevel = proactive
		c, err := NewCluster(cfg, paperDetectorFactory(t))
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.Run()
		if err != nil {
			t.Fatal(err)
		}
		if m := c.MaxDownSeen(); m > 1 {
			t.Fatalf("capacity budget violated: %d hosts down at once", m)
		}
		return res
	}
	full := run(nil, 0) // legacy one-down full restarts, reactive only
	sc := sched.Scheduled(4, 30)
	part := run(&sc, 3)
	if part.Partial == 0 {
		t.Fatal("tiered policy executed no partial actions")
	}
	if part.Lost >= full.Lost {
		t.Fatalf("scheduled partial rejuvenation lost %d transactions, full restarts lost %d — no benefit",
			part.Lost, full.Lost)
	}
}

func TestClusterDeadlineAwareDefers(t *testing.T) {
	sc := sched.Scheduled(4, 30)
	cfg := scheduledClusterConfig(&sc)
	c, err := NewCluster(cfg, paperDetectorFactory(t))
	if err != nil {
		t.Fatal(err)
	}
	deadlineDefers := 0
	c.OnTransition = func(tr sched.Transition) {
		if tr.Op == sched.OpDefer && tr.Reason == sched.ReasonDeadline {
			deadlineDefers++
		}
	}
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if deadlineDefers == 0 {
		t.Fatal("deadline-aware cluster never deferred on a QoS horizon")
	}
}

func TestClusterJournalReplaysIdentically(t *testing.T) {
	sc := sched.Scheduled(4, 30)
	cfg := scheduledClusterConfig(&sc)
	c, err := NewCluster(cfg, paperDetectorFactory(t))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	jw := journal.NewWriter(&buf, journal.Meta{CreatedBy: "cluster_test"})
	c.Journal(jw)
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if err := jw.Err(); err != nil {
		t.Fatal(err)
	}
	jr, err := journal.NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := journal.ReplaySched(jr, c.SchedulerConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Identical() {
		t.Fatalf("cluster scheduler journal does not replay: %+v", rep.Mismatch)
	}
	if rep.Starts == 0 {
		t.Fatal("journal recorded no dispatches")
	}
	for grp, d := range rep.MaxDownSeen {
		if d > 1 {
			t.Fatalf("replayed governor saw %d down in group %d, budget is 1", d, grp)
		}
	}
	st := c.gov.Stats()
	if uint64(rep.Starts) != st.Starts || uint64(rep.Quarantines) != st.Quarantines {
		t.Errorf("replay census (%d starts) disagrees with governor stats (%d)", rep.Starts, st.Starts)
	}
}

func TestClusterRejectsMismatchedScheduler(t *testing.T) {
	sc := sched.Scheduled(3, 30) // 3 replicas, 4 hosts
	cfg := scheduledClusterConfig(&sc)
	if _, err := NewCluster(cfg, nil); err == nil {
		t.Fatal("scheduler sized for 3 replicas accepted by a 4-host cluster")
	}
}

func TestClusterVirtualAgeAccounting(t *testing.T) {
	sc := sched.Scheduled(4, 30)
	cfg := scheduledClusterConfig(&sc)
	c, err := NewCluster(cfg, paperDetectorFactory(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	for h := 0; h < cfg.Hosts; h++ {
		if age := c.VirtualAge(h); age < 0 {
			t.Fatalf("host %d virtual age %v negative", h, age)
		}
	}
	if c.VirtualAge(-1) != 0 || c.VirtualAge(99) != 0 {
		t.Error("out-of-range virtual age not zero")
	}
}
