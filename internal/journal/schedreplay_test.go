package journal

import (
	"bytes"
	"strings"
	"testing"

	"rejuv/internal/sched"
)

// schedScriptConfig is the governor configuration shared by the
// recording and replaying sides of the scheduler replay tests.
func schedScriptConfig() sched.Config {
	return sched.Config{
		Replicas:      4,
		MaxDown:       1,
		QueueDepth:    2,
		CapacityFloor: 0.5,
		MaxDefer:      50,
		FullPause:     40,
	}
}

// runSchedScript drives a governor through every input class — admission,
// coalescing, refusal, saturation, deadline windows, the starvation
// latch, failed completions, quarantine and readmission — journaling
// each transition, interleaved with non-scheduler records the replay
// must skip.
func runSchedScript(t *testing.T, jw *Writer) {
	t.Helper()
	g, err := sched.New(schedScriptConfig())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	emit := func(trs []sched.Transition) {
		for _, tr := range trs {
			jw.Record(SchedRecord(tr))
		}
	}
	jw.Observe(0, 0, 1.5) // non-sched noise the replay skips
	emit(g.Request(0, 0, 5, 0, 0, 101))
	jw.GCStart(0.5, 12)
	emit(g.Request(1, 1, 2, 1, 20, 102)) // queued behind budget, deadline 20
	emit(g.Request(2, 1, 3, 0, 25, 103)) // coalesces into the entry
	emit(g.Request(3, 0, 5, 0, 0, 104))  // refused: in-flight
	emit(g.Request(4, 2, 1, 0, 0, 105))  // queue now full (depth 2)
	emit(g.Request(5, 3, 4, 2, 0, 106))  // refused: saturated, escalates oldest
	emit(g.Complete(10, 0, false))       // failed action requeues replica 0
	jw.Observe(10.5, 0, 2.25)
	emit(g.Tick(25)) // deadline horizon expired
	emit(g.Complete(30, 1, true))
	emit(g.GiveUp(31, 2, "restart rpc unreachable"))
	emit(g.Request(32, 2, 5, 0, 0, 107))   // refused: quarantined
	emit(g.Request(33, 3, 1, 0, 200, 108)) // long deadline horizon
	emit(g.Complete(70, 0, true))          // frees budget; replica 3 window-deferred
	emit(g.Tick(85))                       // past the max-defer latch: escalates and starts
	emit(g.Complete(95, 3, true))
	emit(g.Readmit(100, 2))
	if err := jw.Err(); err != nil {
		t.Fatalf("writer: %v", err)
	}
}

func TestReplaySchedIdentical(t *testing.T) {
	var buf bytes.Buffer
	jw := NewWriter(&buf, Meta{CreatedBy: "sched_test"})
	runSchedScript(t, jw)

	jr, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	rep, err := ReplaySched(jr, schedScriptConfig())
	if err != nil {
		t.Fatalf("ReplaySched: %v", err)
	}
	if !rep.Identical() {
		t.Fatalf("replay mismatch: %+v", rep.Mismatch)
	}
	if rep.Records == 0 || rep.Records != rep.Enqueues+rep.Defers+rep.Coalesces+rep.Starts+rep.Completes+rep.Quarantines+rep.Readmits {
		t.Errorf("census does not add up: %+v", rep)
	}
	if rep.Enqueues < 4 || rep.Starts < 3 || rep.Completes != 4 || rep.Quarantines != 1 || rep.Readmits != 1 {
		t.Errorf("unexpected census: %+v", rep)
	}
	if len(rep.MaxDownSeen) != 1 || rep.MaxDownSeen[0] != 1 {
		t.Errorf("MaxDownSeen = %v, want [1]: the replayed governor proves the budget", rep.MaxDownSeen)
	}
}

func TestReplaySchedDetectsTampering(t *testing.T) {
	// Journal the script, then re-journal it with one start's urgency
	// nudged: the replay must locate the divergence.
	var buf bytes.Buffer
	jw := NewWriter(&buf, Meta{})
	runSchedScript(t, jw)
	jr, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	recs, err := jr.ReadAll()
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	var tampered bytes.Buffer
	tw := NewWriter(&tampered, Meta{})
	done := false
	for _, r := range recs {
		if !done && r.Kind == KindSchedStart {
			r.Value += 0.125 // pretend a different tier rho was dispatched
			done = true
		}
		tw.Record(r)
	}
	tr, err := NewReader(bytes.NewReader(tampered.Bytes()))
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	rep, err := ReplaySched(tr, schedScriptConfig())
	if err != nil {
		t.Fatalf("ReplaySched: %v", err)
	}
	if rep.Identical() {
		t.Fatal("replay accepted a tampered start record")
	}
	if !strings.Contains(rep.Mismatch.Reason, "differs") {
		t.Errorf("mismatch reason %q", rep.Mismatch.Reason)
	}
}

func TestReplaySchedDetectsWrongConfig(t *testing.T) {
	var buf bytes.Buffer
	jw := NewWriter(&buf, Meta{})
	runSchedScript(t, jw)
	jr, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	cfg := schedScriptConfig()
	cfg.MaxDown = 2 // replaying under a looser budget diverges
	rep, err := ReplaySched(jr, cfg)
	if err != nil {
		t.Fatalf("ReplaySched: %v", err)
	}
	if rep.Identical() {
		t.Fatal("replay under a different budget reported identical")
	}
}

func TestSchedRecordKinds(t *testing.T) {
	for k := Kind(1); k <= maxKind; k++ {
		want := k >= KindSchedEnqueue && k <= KindSchedReadmit
		if k.IsSched() != want {
			t.Errorf("IsSched(%v) = %v", k, k.IsSched())
		}
	}
}
