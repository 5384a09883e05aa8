package rejuv_test

import (
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"rejuv"
)

func testDetector(t *testing.T) rejuv.Detector {
	t.Helper()
	det, err := rejuv.NewSRAA(rejuv.SRAAConfig{
		SampleSize: 1, Buckets: 1, Depth: 1,
		Baseline: rejuv.Baseline{Mean: 5, StdDev: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	return det
}

func TestMonitorValidation(t *testing.T) {
	noop := func(rejuv.Trigger) {}
	if _, err := rejuv.NewMonitor(rejuv.MonitorConfig{OnTrigger: noop}); err == nil {
		t.Error("monitor without detector accepted")
	}
	if _, err := rejuv.NewMonitor(rejuv.MonitorConfig{Detector: testDetector(t)}); err == nil {
		t.Error("monitor without callback accepted")
	}
	if _, err := rejuv.NewMonitor(rejuv.MonitorConfig{
		Detector: testDetector(t), OnTrigger: noop, Cooldown: -time.Second,
	}); err == nil {
		t.Error("negative cooldown accepted")
	}
}

func TestMonitorTriggersCallback(t *testing.T) {
	var got []rejuv.Trigger
	m, err := rejuv.NewMonitor(rejuv.MonitorConfig{
		Detector:  testDetector(t),
		OnTrigger: func(tr rejuv.Trigger) { got = append(got, tr) },
	})
	if err != nil {
		t.Fatal(err)
	}
	m.Observe(100) // fill
	m.Observe(100) // overflow -> trigger
	if len(got) != 1 {
		t.Fatalf("%d triggers, want 1", len(got))
	}
	if got[0].Observations != 2 {
		t.Fatalf("trigger at observation %d, want 2", got[0].Observations)
	}
	s := m.Stats()
	if s.Observations != 2 || s.Triggers != 1 || s.Suppressed != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestMonitorCooldownSuppresses(t *testing.T) {
	now := time.Unix(1000, 0)
	triggers := 0
	m, err := rejuv.NewMonitor(rejuv.MonitorConfig{
		Detector:  testDetector(t),
		OnTrigger: func(rejuv.Trigger) { triggers++ },
		Cooldown:  10 * time.Second,
		Now:       func() time.Time { return now },
	})
	if err != nil {
		t.Fatal(err)
	}
	// First trigger fires.
	m.Observe(100)
	m.Observe(100)
	// Second trigger inside the cooldown window is suppressed.
	now = now.Add(5 * time.Second)
	m.Observe(100)
	m.Observe(100)
	// Third trigger after the window fires again.
	now = now.Add(11 * time.Second)
	m.Observe(100)
	m.Observe(100)
	if triggers != 2 {
		t.Fatalf("%d callbacks, want 2", triggers)
	}
	s := m.Stats()
	if s.Triggers != 2 || s.Suppressed != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if !s.LastTrigger.Equal(now) {
		t.Fatalf("last trigger %v, want %v", s.LastTrigger, now)
	}
}

func TestMonitorConcurrentObservers(t *testing.T) {
	det, err := rejuv.NewCLTA(rejuv.CLTAConfig{
		SampleSize: 10, Quantile: 1.96,
		Baseline: rejuv.Baseline{Mean: 5, StdDev: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	var triggers int
	m, err := rejuv.NewMonitor(rejuv.MonitorConfig{
		Detector:  det,
		OnTrigger: func(rejuv.Trigger) { triggers++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				m.Observe(100) // every sample triggers
			}
		}()
	}
	wg.Wait()
	s := m.Stats()
	if s.Observations != 8000 {
		t.Fatalf("observations = %d, want 8000 (lost updates under contention)", s.Observations)
	}
	// Every completed block of 10 observations of 100 must trigger.
	if want := uint64(800); s.Triggers != want {
		t.Fatalf("triggers = %d, want %d", s.Triggers, want)
	}
	if triggers != 800 {
		t.Fatalf("callback ran %d times, want 800", triggers)
	}
}

func TestMonitorObserveDuration(t *testing.T) {
	var mean float64
	m, err := rejuv.NewMonitor(rejuv.MonitorConfig{
		Detector:  testDetector(t),
		OnTrigger: func(tr rejuv.Trigger) { mean = tr.Decision.SampleMean },
	})
	if err != nil {
		t.Fatal(err)
	}
	m.ObserveDuration(30 * time.Second)
	m.ObserveDuration(30 * time.Second)
	if mean != 30 {
		t.Fatalf("sample mean %v, want 30 seconds", mean)
	}
}

func TestMonitorReset(t *testing.T) {
	triggers := 0
	m, err := rejuv.NewMonitor(rejuv.MonitorConfig{
		Detector:  testDetector(t),
		OnTrigger: func(rejuv.Trigger) { triggers++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	m.Observe(100) // half way to a trigger
	m.Reset()
	m.Observe(100) // again half way: reset must have cleared the fill
	if triggers != 0 {
		t.Fatalf("%d triggers after reset, want 0", triggers)
	}
	if s := m.Stats(); s.Observations != 2 {
		t.Fatalf("observations = %d, want counters to survive reset", s.Observations)
	}
}

func TestMiddlewareObservesServiceTime(t *testing.T) {
	now := time.Unix(0, 0)
	var observed []float64
	det, err := rejuv.NewShewhart(3, rejuv.Baseline{Mean: 0.01, StdDev: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	m, err := rejuv.NewMonitor(rejuv.MonitorConfig{
		Detector:  det,
		OnTrigger: func(tr rejuv.Trigger) { observed = append(observed, tr.Decision.SampleMean) },
		Now:       func() time.Time { return now },
	})
	if err != nil {
		t.Fatal(err)
	}
	handler := m.Middleware(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		now = now.Add(100 * time.Millisecond) // the handler "takes" 100 ms
		w.WriteHeader(http.StatusOK)
	}))
	req := httptest.NewRequest(http.MethodGet, "/", nil)
	handler.ServeHTTP(httptest.NewRecorder(), req)
	if s := m.Stats(); s.Observations != 1 {
		t.Fatalf("observations = %d, want 1", s.Observations)
	}
	// 100 ms is far beyond 0.01 + 3*0.01: the trigger carries it.
	if len(observed) != 1 || observed[0] != 0.1 {
		t.Fatalf("observed = %v, want [0.1]", observed)
	}
}
