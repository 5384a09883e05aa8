package ecommerce

import (
	"bytes"
	"testing"

	"rejuv/internal/core"
	"rejuv/internal/journal"
)

// Non-stationary workload scenarios: the arrival rate moves because the
// workload legitimately changed, and an adaptive-baseline detector
// (core.Rebase) should rebaseline through the movement instead of
// condemning the healthy system.

func TestWorkloadShapeValidation(t *testing.T) {
	bad := []*WorkloadShape{
		{},
		{Phases: []WorkloadPhase{{Duration: 0, Factor: 1}}},
		{Phases: []WorkloadPhase{{Duration: -5, Factor: 1}}},
		{Phases: []WorkloadPhase{{Duration: 10, Factor: 0}}},
		{Phases: []WorkloadPhase{{Duration: 10, Factor: -2}}},
	}
	for i, w := range bad {
		cfg := pureConfig(1.6, 1000, 1)
		cfg.Workload = w
		if _, err := New(cfg, nil); err == nil {
			t.Errorf("shape %d: invalid workload accepted", i)
		}
	}
	cfg := pureConfig(1.6, 1000, 1)
	cfg.Workload = DiurnalWorkload(2000, 1.9, 20)
	if _, err := New(cfg, nil); err != nil {
		t.Errorf("diurnal shape rejected: %v", err)
	}
}

// TestWorkloadRaisesThroughput: a surge profile raises the average
// arrival rate, so the same transaction budget completes in less
// virtual time than the steady run on the same random stream.
func TestWorkloadRaisesThroughput(t *testing.T) {
	run := func(w *WorkloadShape) Result {
		cfg := pureConfig(1.6, 20_000, 3)
		cfg.Workload = w
		m, err := New(cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	steady := run(nil)
	flash := run(FlashCrowdWorkload(500, 5000, 1.9))
	if flash.SimTime >= steady.SimTime {
		t.Errorf("flash crowd did not raise throughput: %v >= %v virtual seconds", flash.SimTime, steady.SimTime)
	}
}

// rebasedCLTA builds the scenario detector: a CLTA judged against the
// healthy M/M/16 baseline, wrapped in the workload-shift layer. The
// queueing model moves its response-time mean gradually (congestion
// builds over many transactions), so the scenario widens MaxShiftRun
// accordingly — the trace-level default of 20 is tuned for abrupt
// telemetry steps.
func rebasedCLTA(base core.Baseline) func() (core.Detector, error) {
	return func() (core.Detector, error) {
		return core.NewRebase(core.ShiftConfig{MaxShiftRun: 80}, base,
			func(b core.Baseline) (core.Detector, error) {
				return core.NewCLTA(core.CLTAConfig{SampleSize: 25, Quantile: 1.96, Baseline: b})
			})
	}
}

// scenarioBase is the healthy M/M/16 response-time baseline at
// lambda = 1.6 (mean ~5.06s, sd ~5s — service time dominates).
var scenarioBase = core.Baseline{Mean: 5, StdDev: 5}

// TestFlashCrowdRebaselinesInsteadOfRejuvenating: under a flash crowd
// the system is congested but healthy. The bare detector condemns the
// congestion and rejuvenates — killing transactions for nothing — while
// the rebased detector reclassifies it as workload, commits a new
// baseline, and rejuvenates less.
func TestFlashCrowdRebaselinesInsteadOfRejuvenating(t *testing.T) {
	run := func(factory func() (core.Detector, error)) Result {
		det, err := factory()
		if err != nil {
			t.Fatal(err)
		}
		cfg := pureConfig(1.6, 15_000, 7)
		cfg.Workload = FlashCrowdWorkload(500, 2000, 1.9)
		m, err := New(cfg, det)
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	bare := run(func() (core.Detector, error) {
		return core.NewCLTA(core.CLTAConfig{SampleSize: 25, Quantile: 1.96, Baseline: scenarioBase})
	})
	if bare.Rejuvenations == 0 {
		t.Fatal("bare detector never rejuvenated during the flash crowd; scenario is vacuous")
	}
	reb := run(rebasedCLTA(scenarioBase))
	if reb.Rebaselines == 0 {
		t.Error("rebased detector never rebaselined across the flash crowd")
	}
	if reb.Rejuvenations >= bare.Rejuvenations {
		t.Errorf("rebased detector rejuvenated %d times, bare %d; rebaselining bought nothing",
			reb.Rejuvenations, bare.Rejuvenations)
	}
}

// TestDiurnalJournalReplaysWithRebaselines: a diurnal arrival cycle
// driven through a rebased detector journals its rebaseline events, and
// the journal replays byte-identically — the flight-recorder contract
// extends to non-stationary runs.
func TestDiurnalJournalReplaysWithRebaselines(t *testing.T) {
	factory := rebasedCLTA(scenarioBase)
	det, err := factory()
	if err != nil {
		t.Fatal(err)
	}
	cfg := pureConfig(1.6, 20_000, 5)
	cfg.Workload = DiurnalWorkload(2000, 1.9, 20)
	m, err := New(cfg, det)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	jw := journal.NewWriter(&buf, journal.Meta{CreatedBy: "workload_test", Detector: "Rebase(CLTA)"})
	jw.RepStart(0, 0, cfg.Seed, cfg.Stream)
	m.Journal(jw)
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := jw.Err(); err != nil {
		t.Fatal(err)
	}
	if res.Rebaselines == 0 {
		t.Fatal("diurnal cycle committed no rebaselines; scenario is vacuous")
	}
	jr, err := journal.NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := journal.Replay(jr, func(string) (core.Detector, error) { return factory() })
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Identical() {
		t.Errorf("diurnal journal replay diverged: %+v", rep)
	}
	if int64(rep.Rebaselines) != res.Rebaselines {
		t.Errorf("replay verified %d rebaselines, run committed %d", rep.Rebaselines, res.Rebaselines)
	}
}

// TestWorkloadDeterministic: workload shapes preserve replication
// determinism — identical seeds and shapes give identical results.
func TestWorkloadDeterministic(t *testing.T) {
	run := func() Result {
		det, err := rebasedCLTA(scenarioBase)()
		if err != nil {
			t.Fatal(err)
		}
		cfg := pureConfig(1.6, 10_000, 11)
		cfg.Workload = RampPlateauWorkload(500, 1500, 10, 1.9)
		m, err := New(cfg, det)
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Completed != b.Completed || a.Rejuvenations != b.Rejuvenations ||
		a.Rebaselines != b.Rebaselines || a.AvgRT() != b.AvgRT() || a.SimTime != b.SimTime {
		t.Fatalf("identical seeds diverged: %+v vs %+v", a, b)
	}
}
