package rejuv_test

// Integration tests for the command-line tools: each binary is built
// once into a temp dir and driven with fast flags, asserting on its
// output. These protect the CLI surface the documentation promises.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"rejuv"
	"rejuv/internal/experiment"
	"rejuv/internal/journal"
)

// updateGolden regenerates the golden stdout files under testdata/cli
// instead of comparing against them:
//
//	go test -run TestCmd -update-golden .
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/cli golden files")

// assertGolden compares got against testdata/cli/<name>.golden, or
// rewrites the file under -update-golden. Golden tests pin the exact
// output of deterministic CLI surfaces on pinned seeds, so any change —
// intended or not — shows up as a reviewable diff.
func assertGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", "cli", name+".golden")
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
		t.Fatalf("missing golden file (run go test -update-golden .): %v", err)
	}
	if got != string(want) {
		t.Errorf("%s output diverged from %s.\ngot:\n%s\nwant:\n%s", name, path, got, want)
	}
}

// elapsedRE matches the wall-clock suffix figures prints per figure;
// golden comparisons normalize it because it is the one
// non-deterministic token in the output.
var elapsedRE = regexp.MustCompile(`in [0-9ms.]+s?\)`)

// buildCmds compiles every command once per test binary invocation.
var builtCmds struct {
	dir  string
	err  error
	done bool
}

func cmdPath(t *testing.T, name string) string {
	t.Helper()
	if testing.Short() {
		t.Skip("skipping CLI integration in -short mode")
	}
	if !builtCmds.done {
		builtCmds.done = true
		dir, err := os.MkdirTemp("", "rejuv-cmds")
		if err != nil {
			builtCmds.err = err
		} else {
			builtCmds.dir = dir
			cmd := exec.Command("go", "build", "-o", dir, "./cmd/...")
			cmd.Dir = "."
			if out, err := cmd.CombinedOutput(); err != nil {
				builtCmds.err = err
				t.Logf("go build output:\n%s", out)
			}
		}
	}
	if builtCmds.err != nil {
		t.Fatalf("building commands: %v", builtCmds.err)
	}
	return filepath.Join(builtCmds.dir, name)
}

func runCmd(t *testing.T, name string, stdin string, args ...string) string {
	t.Helper()
	cmd := exec.Command(cmdPath(t, name), args...)
	if stdin != "" {
		cmd.Stdin = strings.NewReader(stdin)
	}
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", name, args, err, out)
	}
	return string(out)
}

func TestCmdMMCalc(t *testing.T) {
	out := runCmd(t, "mmcalc", "", "-tails")
	for _, want := range []string{"Wc (P[fewer than c jobs])   = 0.990981", "n= 15: 3.7", "n= 30: 3.4"} {
		if !strings.Contains(out, want) {
			t.Errorf("mmcalc output missing %q:\n%s", want, out)
		}
	}
}

func TestCmdMMCalcChainAndDensity(t *testing.T) {
	out := runCmd(t, "mmcalc", "", "-chain", "-density", "-n", "2", "-x", "5")
	for _, want := range []string{"Fig. 4 chain for X̄2", "4 transient phases", "density="} {
		if !strings.Contains(out, want) {
			t.Errorf("mmcalc -chain output missing %q:\n%s", want, out)
		}
	}
}

func TestCmdRejuvsim(t *testing.T) {
	out := runCmd(t, "rejuvsim", "",
		"-algo", "SARAA", "-n", "2", "-k", "5", "-d", "3",
		"-load", "9", "-reps", "1", "-txns", "5000")
	for _, want := range []string{"SARAA (n=2, K=5, D=3)", "average response time:", "rejuvenations:"} {
		if !strings.Contains(out, want) {
			t.Errorf("rejuvsim output missing %q:\n%s", want, out)
		}
	}
}

func TestCmdFiguresQuick(t *testing.T) {
	dir := t.TempDir()
	out := runCmd(t, "figures", "", "-fig", "16", "-quick", "-out", dir)
	if !strings.Contains(out, "Figure 16") {
		t.Fatalf("figures output missing table:\n%s", out)
	}
	for _, f := range []string{"fig16.csv", "fig16.svg", "fig16.txt"} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Errorf("missing artifact %s: %v", f, err)
		}
	}
}

func TestCmdAutocorr(t *testing.T) {
	out := runCmd(t, "autocorr", "", "-reps", "2", "-txns", "20000", "-warmup", "2000")
	if !strings.Contains(out, "significant in") {
		t.Fatalf("autocorr output missing verdict:\n%s", out)
	}
	if !strings.Contains(out, "gamma_1") {
		t.Fatalf("autocorr output missing coefficients:\n%s", out)
	}
}

func TestCmdQuotes(t *testing.T) {
	out := runCmd(t, "quotes", "", "-reps", "1", "-txns", "5000", "-markdown")
	if !strings.Contains(out, "| source | quantity | paper | measured | rel. diff |") {
		t.Fatalf("quotes markdown header missing:\n%s", out)
	}
	if strings.Count(out, "\n|") < 10 {
		t.Fatalf("quotes table too short:\n%s", out)
	}
}

func TestCmdTune(t *testing.T) {
	out := runCmd(t, "tune", "", "-budget", "4", "-reps", "1", "-txns", "4000", "-top", "3")
	for _, want := range []string{"tuning SRAA over 6 candidates", "rank", "worst:"} {
		if !strings.Contains(out, want) {
			t.Errorf("tune output missing %q:\n%s", want, out)
		}
	}
}

func TestCmdRejuvmon(t *testing.T) {
	var input strings.Builder
	for i := 0; i < 50; i++ {
		input.WriteString("0.1\n")
	}
	for i := 0; i < 50; i++ {
		input.WriteString("9.9\n")
	}
	out := runCmd(t, "rejuvmon", input.String(),
		"-algo", "SRAA", "-n", "2", "-k", "2", "-d", "2",
		"-mean", "0.1", "-sd", "0.1", "-cooldown", "0s")
	if !strings.Contains(out, "TRIGGER") {
		t.Fatalf("rejuvmon never triggered on a step stream:\n%s", out)
	}
	if !strings.Contains(out, "100 observations") {
		t.Fatalf("rejuvmon summary missing:\n%s", out)
	}
}

// TestCmdRejuvmonTraceJournal drives rejuvmon -q -trace on a step
// stream: stderr must be a JSON-lines journal that the journal reader
// decodes, with one observe record per input value and the triggering
// decision records that explain the rejuvenations on stdout.
func TestCmdRejuvmonTraceJournal(t *testing.T) {
	var input strings.Builder
	for i := 0; i < 50; i++ {
		input.WriteString("0.1\n")
	}
	for i := 0; i < 50; i++ {
		input.WriteString("9.9\n")
	}
	cmd := exec.Command(cmdPath(t, "rejuvmon"), "-q", "-trace",
		"-algo", "SRAA", "-n", "2", "-k", "2", "-d", "2",
		"-mean", "0.1", "-sd", "0.1", "-cooldown", "0s")
	cmd.Stdin = strings.NewReader(input.String())
	var stdout, stderr strings.Builder
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("rejuvmon -q -trace: %v\n%s", err, stderr.String())
	}
	if !strings.Contains(stdout.String(), "TRIGGER") {
		t.Fatalf("rejuvmon never triggered on a step stream:\n%s", stdout.String())
	}
	jr, err := rejuv.NewJournalReader(strings.NewReader(stderr.String()))
	if err != nil {
		t.Fatalf("stderr is not a journal: %v\n%.400s", err, stderr.String())
	}
	recs, err := jr.ReadAll()
	if err != nil {
		t.Fatalf("decoding the stderr journal: %v", err)
	}
	if jr.Format() != rejuv.JournalJSONL {
		t.Errorf("journal format %v, want JSON lines", jr.Format())
	}
	var observes, triggers int
	for _, r := range recs {
		switch r.Kind {
		case rejuv.JournalKindObserve:
			observes++
		case rejuv.JournalKindDecision:
			if r.Triggered {
				triggers++
			}
		}
	}
	if observes != 100 {
		t.Errorf("journal has %d observe records, want one per input value (100)", observes)
	}
	if triggers == 0 {
		t.Error("journal has no triggered decision record")
	}
}

func TestCmdRejuvmonRejectsGarbage(t *testing.T) {
	cmd := exec.Command(cmdPath(t, "rejuvmon"), "-mean", "1", "-sd", "1")
	cmd.Stdin = strings.NewReader("not-a-number\n")
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("rejuvmon accepted garbage input:\n%s", out)
	}
}

// TestCmdRejuvtrace records a journal with rejuvsim, then drives every
// rejuvtrace mode against it: the ASCII timeline, the CSV dump, the
// phase statistics, replay verification, and a -diff against a second
// journal recorded with a different detector.
func TestCmdRejuvtrace(t *testing.T) {
	dir := t.TempDir()
	jnlA := filepath.Join(dir, "saraa.jnl")
	jnlB := filepath.Join(dir, "sraa.jnl")
	out := runCmd(t, "rejuvsim", "",
		"-algo", "SARAA", "-n", "2", "-k", "5", "-d", "3",
		"-load", "9", "-reps", "2", "-txns", "5000", "-journal", jnlA)
	if !strings.Contains(out, "journal:") {
		t.Fatalf("rejuvsim did not report the journal:\n%s", out)
	}
	runCmd(t, "rejuvsim", "",
		"-algo", "SRAA", "-n", "2", "-k", "5", "-d", "3",
		"-load", "9", "-reps", "2", "-txns", "5000", "-journal", jnlB)

	timeline := runCmd(t, "rejuvtrace", "", "-window", "6", "-triggers", "2", jnlA)
	for _, want := range []string{
		"SARAA (n=2, K=5, D=3)", "recorded by rejuvsim",
		"trigger #1", "TRIGGER", "first exceedance", "bucket dwell",
		"time from first exceedance to trigger:",
	} {
		if !strings.Contains(timeline, want) {
			t.Errorf("rejuvtrace timeline missing %q:\n%s", want, timeline)
		}
	}

	csv := runCmd(t, "rejuvtrace", "", "-csv", jnlA)
	if !strings.Contains(csv, "trigger,rep,seq,t,sample_mean,target,level,fill,triggered,suppressed") {
		t.Errorf("rejuvtrace -csv missing header:\n%.400s", csv)
	}
	if !strings.Contains(csv, ",true,false") {
		t.Errorf("rejuvtrace -csv has no trigger rows:\n%.400s", csv)
	}

	phases := runCmd(t, "rejuvtrace", "", "-phases", jnlA)
	if !strings.Contains(phases, "phases:") || !strings.Contains(phases, "mean bucket dwell per phase:") {
		t.Errorf("rejuvtrace -phases output:\n%s", phases)
	}

	verify := runCmd(t, "rejuvtrace", "", "-verify", jnlA)
	if !strings.Contains(verify, "byte-identical under replay") {
		t.Fatalf("rejuvtrace -verify did not verify:\n%s", verify)
	}

	// Same seed, different detectors: the decision streams must part
	// ways, and -diff reports it with exit status 1.
	cmd := exec.Command(cmdPath(t, "rejuvtrace"), "-diff", jnlA, jnlB)
	diffOut, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("rejuvtrace -diff of different detectors exited 0:\n%s", diffOut)
	}
	for _, want := range []string{"leading decisions identical", "first divergence at decision ordinal"} {
		if !strings.Contains(string(diffOut), want) {
			t.Errorf("rejuvtrace -diff missing %q:\n%s", want, diffOut)
		}
	}

	// A journal diffed against itself has no divergence and exits 0.
	selfDiff := runCmd(t, "rejuvtrace", "", "-diff", jnlA, jnlA)
	if !strings.Contains(selfDiff, "journals agree on every decision") {
		t.Errorf("rejuvtrace self-diff output:\n%s", selfDiff)
	}
}

// TestCmdRejuvtraceCausality drives the trigger-id correlation end to
// end: a library monitor delivers a trigger whose id the OnTrigger
// callback hands to the actuator, both journal into one file, and
// rejuvtrace -trigger renders the complete observation → decision →
// actuation chain. The id is discovered from the default timeline
// output, the way an operator would.
func TestCmdRejuvtraceCausality(t *testing.T) {
	jnl := filepath.Join(t.TempDir(), "mon.jnl")
	f, err := os.Create(jnl)
	if err != nil {
		t.Fatal(err)
	}
	jw := rejuv.NewJournalWriter(f, rejuv.JournalMeta{CreatedBy: "cmd_integration_test"})
	now := time.Unix(1000, 0)
	clock := func() time.Time { now = now.Add(time.Second); return now }

	// First restart attempt fails, the retry succeeds: the chain gets a
	// FAIL attempt with a backoff and an ok attempt.
	fails := 1
	act, err := rejuv.NewActuator(rejuv.ActuatorConfig{
		Do: func(context.Context) error {
			if fails > 0 {
				fails--
				return errors.New("supervisor unreachable")
			}
			return nil
		},
		Backoff: time.Second,
		Now:     clock,
		Sleep:   func(_ context.Context, d time.Duration) error { now = now.Add(d); return nil },
		Journal: jw,
		Epoch:   time.Unix(1000, 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	det, err := rejuv.NewSRAA(rejuv.SRAAConfig{SampleSize: 2, Buckets: 3, Depth: 2,
		Baseline: rejuv.Baseline{Mean: 5, StdDev: 5}})
	if err != nil {
		t.Fatal(err)
	}
	m, err := rejuv.NewMonitor(rejuv.MonitorConfig{
		Detector: det,
		Now:      clock,
		Journal:  jw,
		// OnTrigger runs under the monitor lock, so the synchronous
		// ExecuteFor may share the monitor's journal writer.
		OnTrigger: func(tr rejuv.Trigger) {
			_ = act.ExecuteFor(context.Background(), tr.ID)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		m.Observe(50)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	timeline := runCmd(t, "rejuvtrace", "", "-triggers", "1", jnl)
	idMatch := regexp.MustCompile(`trigger #1 .* id=(0x[0-9a-f]+)`).FindStringSubmatch(timeline)
	if idMatch == nil {
		t.Fatalf("timeline carries no trigger id:\n%s", timeline)
	}

	chain := runCmd(t, "rejuvtrace", "", "-trigger", idMatch[1], jnl)
	for _, want := range []string{
		"trigger id " + idMatch[1], "observations (", "value=50",
		"decision:", "TRIGGER", "actuation:", "succeeded after 2 attempt(s)",
		"attempt 1", "FAIL  supervisor unreachable", "retry in", "attempt 2",
	} {
		if !strings.Contains(chain, want) {
			t.Errorf("causality chain missing %q:\n%s", want, chain)
		}
	}

	// An id no record carries is an error, exit status 1.
	cmd := exec.Command(cmdPath(t, "rejuvtrace"), "-trigger", "0xdead", jnl)
	if out, err := cmd.CombinedOutput(); err == nil {
		t.Fatalf("rejuvtrace -trigger with an absent id exited 0:\n%s", out)
	}
}

// TestCmdRejuvtopGolden renders a pinned /fleetz snapshot through the
// rejuvtop one-shot mode. The fixture carries fixed self-telemetry, so
// the entire text view is pinned byte for byte — the same layout the
// /fleetz?format=text endpoint serves.
func TestCmdRejuvtopGolden(t *testing.T) {
	fixture := filepath.Join("testdata", "cli", "fleetz_snapshot.json")
	assertGolden(t, "rejuvtop", runCmd(t, "rejuvtop", "", "-snapshot", fixture))

	// The '-' stdin path renders the same bytes.
	fix, err := os.ReadFile(fixture)
	if err != nil {
		t.Fatal(err)
	}
	assertGolden(t, "rejuvtop", runCmd(t, "rejuvtop", string(fix), "-snapshot", "-"))
}

// TestCmdRejuvtopLive closes the loop the documentation promises: a
// running Fleet served over HTTP by FleetzHandler, scraped and rendered
// by the rejuvtop binary. Self-telemetry varies run to run, so this
// asserts structure rather than golden bytes.
func TestCmdRejuvtopLive(t *testing.T) {
	f, err := rejuv.NewFleet(rejuv.FleetConfig{
		Classes: []rejuv.StreamClass{{
			Name: "web", Family: rejuv.FamilySRAA,
			SampleSize: 2, Buckets: 3, Depth: 2,
			Baseline: rejuv.Baseline{Mean: 5, StdDev: 1},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for id := rejuv.StreamID(1); id <= 8; id++ {
		if err := f.OpenStream(id, "web"); err != nil {
			t.Fatal(err)
		}
	}
	// Stream 1 ages: six exceedances march it into level 1.
	for i := 0; i < 6; i++ {
		f.ObserveBatch([]rejuv.StreamObs{{Stream: 1, Value: 50}})
	}
	srv := httptest.NewServer(rejuv.FleetzHandler(f, nil))
	defer srv.Close()

	out := runCmd(t, "rejuvtop", "", "-once", "-url", srv.URL)
	for _, want := range []string{"fleet health @", "streams=8", "top aging streams", "web"} {
		if !strings.Contains(out, want) {
			t.Errorf("rejuvtop -url output missing %q:\n%s", want, out)
		}
	}
}

// TestCmdRejuvsimJSONLJournal pins the jsonl codec end to end: rejuvsim
// writes it, rejuvtrace auto-detects and verifies it.
func TestCmdRejuvsimJSONLJournal(t *testing.T) {
	jnl := filepath.Join(t.TempDir(), "run.jsonl")
	runCmd(t, "rejuvsim", "",
		"-algo", "CUSUM", "-quantile", "5", "-weight", "0.5",
		"-load", "9", "-reps", "1", "-txns", "3000",
		"-journal", jnl, "-journal-format", "jsonl")
	head, err := os.ReadFile(jnl)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(head), "{") {
		t.Fatalf("jsonl journal does not start with a JSON header: %.80q", head)
	}
	verify := runCmd(t, "rejuvtrace", "", "-verify", jnl)
	if !strings.Contains(verify, "byte-identical under replay") {
		t.Fatalf("rejuvtrace -verify on jsonl journal:\n%s", verify)
	}
}

// TestCmdRejuvsimFleet drives the -fleet mode end to end: synthetic
// streams with a degrading subset, a stream-tagged journal, and the
// built-in replay verification against the reference detectors.
func TestCmdRejuvsimFleet(t *testing.T) {
	jnl := filepath.Join(t.TempDir(), "fleet.rjnl")
	out := runCmd(t, "rejuvsim", "",
		"-fleet", "300", "-fleet-rounds", "120", "-fleet-aging", "0.05",
		"-journal", jnl)
	for _, want := range []string{
		"fleet: 300 streams over 3 classes",
		"15 of 15 aging streams detected",
		"0 spurious",
		"detection latency (rounds after onset):",
		"verifying replay... identical (300 streams",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("rejuvsim -fleet output missing %q:\n%s", want, out)
		}
	}
}

// TestCmdRejuvtraceFleetJournals runs the journal analysis over fleet
// journals, whose observations and decisions carry stream ids: two
// seeds must diff as diverging, the summary must count every decision
// the replay verified, and each trigger's window must hold only the
// triggering stream's decisions.
func TestCmdRejuvtraceFleetJournals(t *testing.T) {
	dir := t.TempDir()
	var jnls [2]string
	var replayed [2]string
	for i, seed := range []string{"1", "2"} {
		jnls[i] = filepath.Join(dir, "fleet"+seed+".rjnl")
		out := runCmd(t, "rejuvsim", "", "-fleet", "200", "-fleet-aging", "0.1", "-seed", seed, "-journal", jnls[i])
		m := regexp.MustCompile(`identical \(\d+ streams, (\d+) decisions\)`).FindStringSubmatch(out)
		if m == nil {
			t.Fatalf("rejuvsim -fleet seed %s did not verify its journal:\n%s", seed, out)
		}
		replayed[i] = m[1]
	}
	if replayed[0] == "0" {
		t.Fatal("fleet journal carries no decisions; scenario is vacuous")
	}

	summary := runCmd(t, "rejuvtrace", "", jnls[0])
	if !strings.Contains(summary, "decisions "+replayed[0]+" ") {
		t.Errorf("rejuvtrace summary does not count the %s replayed decisions:\n%.600s", replayed[0], summary)
	}

	cmd := exec.Command(cmdPath(t, "rejuvtrace"), "-diff", jnls[0], jnls[1])
	diffOut, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("rejuvtrace -diff of fleet journals at different seeds exited 0:\n%s", diffOut)
	}
	for _, want := range []string{
		replayed[0] + " decisions", replayed[1] + " decisions",
		"first divergence at decision ordinal", "A: stream=", "B: stream=",
	} {
		if !strings.Contains(string(diffOut), want) {
			t.Errorf("rejuvtrace -diff missing %q:\n%s", want, diffOut)
		}
	}

	f, err := os.Open(jnls[0])
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	jr, err := journal.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	records, err := jr.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	a := journal.Analyze(jr.Meta(), jr.Format(), records, 8)
	if len(a.Events) == 0 {
		t.Fatal("fleet journal analysis found no triggers")
	}
	for _, ev := range a.Events {
		if ev.Stream == 0 {
			t.Errorf("trigger #%d attributed to the single-detector stream", ev.Index)
		}
		for _, r := range ev.Window {
			if r.Stream != ev.Stream {
				t.Errorf("trigger #%d on stream %d: window holds stream %d's decision at t=%v",
					ev.Index, ev.Stream, r.Stream, r.Time)
			}
		}
	}
}

// TestCmdRejuvsimShift pins the workload-shift demo end to end: the
// bare-versus-rebased comparison is a pure function of the pinned seed,
// so the whole stdout is golden, and the journal it records round-trips
// through rejuvtrace with the rebaseline events visible in the timeline
// and verified under replay.
func TestCmdRejuvsimShift(t *testing.T) {
	jnl := filepath.Join(t.TempDir(), "shift.rjnl")
	out := runCmd(t, "rejuvsim", "", "-shift", "flash", "-txns", "15000", "-journal", jnl)
	// The journal line carries the temp path; golden everything above it.
	body, _, found := strings.Cut(out, "journal:")
	if !found {
		t.Fatalf("rejuvsim -shift did not report the journal:\n%s", out)
	}
	assertGolden(t, "rejuvsim_shift", body)

	timeline := runCmd(t, "rejuvtrace", "", jnl)
	for _, want := range []string{
		"CLTA (n=25, N=1.96) +shift", "recorded by rejuvsim",
		"rebaselines 1 (workload shifts absorbed without rejuvenating)",
		"rebaseline #1", "baseline -> mean=",
	} {
		if !strings.Contains(timeline, want) {
			t.Errorf("rejuvtrace timeline missing %q:\n%s", want, timeline)
		}
	}

	verify := runCmd(t, "rejuvtrace", "", "-verify", jnl)
	for _, want := range []string{"rebaselines verified: 1", "byte-identical under replay"} {
		if !strings.Contains(verify, want) {
			t.Errorf("rejuvtrace -verify missing %q:\n%s", want, verify)
		}
	}
}

// TestCmdRejuvsimShiftJSONLJournal checks that -shift honours
// -journal-format: the journal it keeps is jsonl, and rejuvtrace
// verifies it under replay.
func TestCmdRejuvsimShiftJSONLJournal(t *testing.T) {
	jnl := filepath.Join(t.TempDir(), "shift.jsonl")
	out := runCmd(t, "rejuvsim", "", "-shift", "flash", "-txns", "3000", "-journal-format", "jsonl", "-journal", jnl)
	if !strings.Contains(out, "records, jsonl)") {
		t.Fatalf("rejuvsim -shift did not report a jsonl journal:\n%s", out)
	}
	head, err := os.ReadFile(jnl)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(head), "{") {
		t.Fatalf("-shift -journal-format jsonl wrote %.8q, not a JSON header", head)
	}
	verify := runCmd(t, "rejuvtrace", "", "-verify", jnl)
	for _, want := range []string{"rebaselines verified: 1", "byte-identical under replay"} {
		if !strings.Contains(verify, want) {
			t.Errorf("rejuvtrace -verify of the jsonl shift journal missing %q:\n%s", want, verify)
		}
	}
}

// TestCmdRejuvtraceVerifiesPreShiftDetectorJournal keeps journals
// written while ShiftConfig still had a Detector field verifiable. It
// rebuilds the journal an older rejuvsim -shift wrote — the same
// records under a header whose Spec carries "Detector":0 — pins its
// bytes to that journal's digest, and checks the spec still decodes
// and the journal replays identically through rejuvtrace -verify.
func TestCmdRejuvtraceVerifiesPreShiftDetectorJournal(t *testing.T) {
	const (
		oldSpec = `{"Algorithm":"CLTA","N":25,"K":0,"D":0,"Quantile":1.96,"Weight":0,` +
			`"Baseline":{"Mean":5,"StdDev":5},` +
			`"Shift":{"Detector":0,"Alpha":0,"Slack":0.75,"Threshold":8,"MaxShiftRun":80,"Relearn":64}}`
		oldDigest = "3e74a6ac7c4bece98e266ea6cdf09ab5853790674ed7e00c12e3a8b1d880d124"
	)
	var spec experiment.Spec
	if err := json.Unmarshal([]byte(oldSpec), &spec); err != nil {
		t.Fatalf("pre-change spec no longer decodes: %v", err)
	}
	if spec.Shift == nil || spec.Shift.Slack != 0.75 || spec.Shift.MaxShiftRun != 80 || spec.Shift.Relearn != 64 {
		t.Fatalf("pre-change spec decoded to shift config %+v", spec.Shift)
	}

	dir := t.TempDir()
	fresh := filepath.Join(dir, "fresh.rjnl")
	runCmd(t, "rejuvsim", "", "-shift", "flash", "-txns", "3000", "-journal", fresh)
	data, err := os.ReadFile(fresh)
	if err != nil {
		t.Fatal(err)
	}
	jr, err := journal.NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	recs, err := jr.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	meta := jr.Meta()
	meta.Spec = oldSpec
	var buf bytes.Buffer
	jw := journal.NewWriter(&buf, meta)
	for _, r := range recs {
		jw.Record(r)
	}
	if err := jw.Err(); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	if got := hex.EncodeToString(sum[:]); got != oldDigest {
		t.Fatalf("rebuilt pre-change journal digest %s, want %s", got, oldDigest)
	}
	old := filepath.Join(dir, "old.rjnl")
	if err := os.WriteFile(old, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	verify := runCmd(t, "rejuvtrace", "", "-verify", old)
	for _, want := range []string{"rebaselines verified: 1", "byte-identical under replay"} {
		if !strings.Contains(verify, want) {
			t.Errorf("rejuvtrace -verify of the pre-change journal missing %q:\n%s", want, verify)
		}
	}
}

// TestCmdRejuvsimRejectsFaults pins that -faults and the other flags a
// demo mode does not read fail loudly there instead of being ignored:
// no mode injects faults, the shift and cluster models have no
// non-finite values for -hygiene to act on, and -shift runs its own
// fixed detector once. An unknown fault class fails too.
func TestCmdRejuvsimRejectsFaults(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-shift", "flash", "-faults", "nan:p=0.1"}, "-faults is not supported in -shift mode"},
		{[]string{"-cluster", "4", "-faults", "nan:p=0.1"}, "-faults is not supported in -cluster mode"},
		{[]string{"-fleet", "8", "-faults", "nan:p=0.1"}, "-faults is not supported in -fleet mode"},
		{[]string{"-shift", "flash", "-hygiene", "clamp"}, "-hygiene is not supported in -shift mode"},
		{[]string{"-cluster", "4", "-hygiene", "off"}, "-hygiene is not supported in -cluster mode"},
		{[]string{"-shift", "flash", "-algo", "SRAA", "-reps", "4"}, "-algo is not supported in -shift mode"},
		{[]string{"-faults", "skew:rate=2"}, `unknown fault class "skew"`},
	} {
		out, err := exec.Command(cmdPath(t, "rejuvsim"), c.args...).CombinedOutput()
		if err == nil {
			t.Errorf("rejuvsim %v exited 0:\n%s", c.args, out)
		}
		if !strings.Contains(string(out), c.want) {
			t.Errorf("rejuvsim %v output missing %q:\n%s", c.args, c.want, out)
		}
	}
}

func TestCmdAgingcalc(t *testing.T) {
	out := runCmd(t, "agingcalc", "")
	for _, want := range []string{"mean time to failure", "availability", "cost-optimal rejuvenation rate"} {
		if !strings.Contains(out, want) {
			t.Errorf("agingcalc output missing %q:\n%s", want, out)
		}
	}
}

// Golden stdout tests: the four analytic/tuning CLI surfaces are pure
// functions of their flags (and pinned seeds), so their entire output
// is pinned byte for byte.

func TestCmdMMCalcGolden(t *testing.T) {
	out := runCmd(t, "mmcalc", "", "-tails", "-chain", "-density", "-n", "2,5", "-x", "5")
	assertGolden(t, "mmcalc", out)
}

func TestCmdAgingcalcGolden(t *testing.T) {
	assertGolden(t, "agingcalc", runCmd(t, "agingcalc", ""))
}

// TestCmdTuneGolden pins the full ranking table of a small grid search
// on a pinned seed — an end-to-end check that the sweep pipeline
// (model, detector, replication engine, aggregation) is deterministic,
// since any drift in any pooled statistic reorders or rewrites the
// table.
func TestCmdTuneGolden(t *testing.T) {
	out := runCmd(t, "tune", "", "-budget", "4", "-reps", "2", "-txns", "3000", "-seed", "7", "-top", "5")
	assertGolden(t, "tune", out)
}

// TestCmdFiguresGolden pins the stdout table of figure 16 in quick mode
// on a pinned seed, with the elapsed-time token normalized. Its CSV is
// pinned by TestCmdFiguresQuickGolden.
func TestCmdFiguresGolden(t *testing.T) {
	out := runCmd(t, "figures", "", "-fig", "16", "-quick", "-seed", "3", "-out", t.TempDir())
	assertGolden(t, "figures_fig16", elapsedRE.ReplaceAllString(out, "in Xs)"))
}

// quickFigureCSVs lists every CSV that `figures -quick` writes: the
// analytic Fig. 5, the simulated Figs. 9–16 with their per-cell detail,
// and the two extension sweeps.
var quickFigureCSVs = []string{
	"fig05",
	"fig09", "fig09_detail", "fig10", "fig10_detail",
	"fig11", "fig11_detail", "fig12", "fig12_detail",
	"fig13", "fig13_detail", "fig14", "fig14_detail",
	"fig15", "fig15_detail", "fig16", "fig16_detail",
	"ext_bursts", "ext_cluster",
}

// TestCmdFiguresQuickGolden regenerates every quick-fidelity figure on
// a pinned seed in one run and byte-compares each CSV against
// testdata/cli/figures_<name>_csv.golden, so a change to the simulator,
// the kernel or a detector that moves any plotted number shows up as a
// diff. It also fails on a CSV the table does not list, so a new figure
// cannot go unpinned.
func TestCmdFiguresQuickGolden(t *testing.T) {
	dir := t.TempDir()
	runCmd(t, "figures", "", "-quick", "-seed", "3", "-out", dir)
	written, err := filepath.Glob(filepath.Join(dir, "*.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if len(written) != len(quickFigureCSVs) {
		t.Errorf("figures -quick wrote %d CSVs, the table pins %d: %v", len(written), len(quickFigureCSVs), written)
	}
	for _, name := range quickFigureCSVs {
		t.Run(name, func(t *testing.T) {
			csv, err := os.ReadFile(filepath.Join(dir, name+".csv"))
			if err != nil {
				t.Fatal(err)
			}
			assertGolden(t, "figures_"+name+"_csv", string(csv))
		})
	}
}

// TestCmdRejuvsimCluster pins the cost-aware cluster scheduling demo:
// the same aging cluster under always-full-restart and under the
// scheduled partial-rejuvenation policy, with the scheduled run's
// journal replay-verified inside the binary. The whole comparison is a
// pure function of the pinned seed, so stdout above the journal line
// is golden — including the loss improvement and the capacity-budget
// high-water line the acceptance criteria name.
func TestCmdRejuvsimCluster(t *testing.T) {
	jnl := filepath.Join(t.TempDir(), "cluster.rjnl")
	out := runCmd(t, "rejuvsim", "",
		"-cluster", "4", "-load", "5", "-txns", "60000", "-seed", "21", "-leaky-gc",
		"-journal", jnl)
	body, _, found := strings.Cut(out, "journal:")
	if !found {
		t.Fatalf("rejuvsim -cluster did not report the journal:\n%s", out)
	}
	assertGolden(t, "rejuvsim_cluster", body)

	trace := runCmd(t, "rejuvtrace", "", jnl)
	for _, want := range []string{
		"recorded by rejuvsim",
		"scheduler 2344 records",
		"action tiers: medium 35, major 62",
		"deferral reasons: deadline 129, budget 50",
	} {
		if !strings.Contains(trace, want) {
			t.Errorf("rejuvtrace cluster summary missing %q:\n%s", want, trace)
		}
	}
}

// TestExampleClusterGolden pins examples/cluster, which now spells its
// historical one-down/30 s policy as the OneDownPolicy scheduler
// preset: the printed comparison must stay semantically identical to
// the hardcoded-policy era (same fields, same seed-pinned numbers).
func TestExampleClusterGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping example build in -short mode")
	}
	cmd := exec.Command("go", "run", "./examples/cluster")
	cmd.Dir = "."
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go run ./examples/cluster: %v\n%s", err, out)
	}
	assertGolden(t, "example_cluster", string(out))
}
