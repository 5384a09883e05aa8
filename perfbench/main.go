// Command perfbench is the repository benchmark: three closed-loop
// workloads driven from one goroutine against the library's public API
// (paper-sweep, fleet-aging, record-replay). Each run sets up several
// times, measures for a fixed number of seconds, checks the outputs, and
// prints its metrics; the last line of standard output is one JSON
// object with the keys correct, attempted, failed and metrics.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	bash perfbench/run.sh --workload paper-sweep --seed 3 --seconds 36 --trace 0
//	bash perfbench/run.sh --workload all        # every workload, untraced and traced
//	bash perfbench/run.sh --check               # output checks at seeds 3 and 11
//	bash perfbench/run.sh compare a.json b.json # compare saved results
//
// See README.md in this directory for the metric catalogue.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strings"
	"time"
)

const (
	// defaultSeed is the workload seed used while developing a change;
	// the paper-sweep golden comparison runs on it.
	defaultSeed = 3
	// heldOutSeed is the seed kept back for verifying claims: the check
	// mode runs the invariant checks and the determinism rerun on it.
	heldOutSeed = 11
	// setupRounds is how many times a run sets its workload up; setup_s
	// is the median.
	setupRounds = 9
	// heapWindow is the number of ops per peak_heap_mb window. The heap
	// after an op depends on where the collector's cycles fall, so the
	// peak of the whole run is set by one unlucky cycle; the median of
	// short-stretch peaks repeats.
	heapWindow = 10
)

// traceDir holds the spans and CPU profiles of traced runs, relative to
// the repository root the benchmark runs from.
var traceDir = filepath.Join(".bench_build", "perfbench")

// workload is one benchmark workload after set-up. Op and the checks
// run on the benchmark's single goroutine.
type workload interface {
	// prepare builds the input of the next op outside the timed region.
	prepare()
	// op runs one timed operation and returns the items it completed.
	// An error marks the op failed (an error from the system or a
	// failed per-op output check).
	op() (int64, error)
	// check runs the end-of-run output checks and returns how many ops
	// the findings implicate (at least one when err is non-nil).
	check() (int, error)
	// layers adds the workload's per-layer counters to m.
	layers(m map[string]metric)
	// digest hashes every output the workload produced so far.
	digest() uint64
	// close releases the workload.
	close()
}

// options configure one workload instance.
type options struct {
	seed   uint64
	tracer *tracer // nil when untraced
	faults faults
}

// faults plants one defect per workload; only the benchmark's own tests
// set them, to prove each output check can fail.
type faults struct {
	skipCell     bool // paper-sweep: the first pass skips one cell
	dropObs      bool // fleet-aging: one observation is not sent
	flipDecision bool // record-replay: a decorator flips one decision
}

// workloads maps a workload name to its constructor, in run order.
var workloads = []struct {
	name string
	new  func(options) (workload, error)
	// allocOps is how many ops allocs_per_item is counted over, on an
	// instance of its own at the default seed (see countAllocs).
	allocOps int
	// warmOps is how many untimed ops the measured instance runs after
	// its set-up, before the timed ops.
	warmOps int
	// window is the number of ops per op_tail_us window; the tail is
	// the percentile 1-10/window of each window.
	window int
	// heapOps is how many timed ops peak_heap_mb looks at, 0 for all.
	// The fleet's heap grows with the rounds it has run, so over a
	// whole run it would follow the host's speed; over a fixed count of
	// ops it does not. The other heaps do not grow, and a whole run
	// gives their median more windows.
	heapOps int
}{
	{"paper-sweep", newSweep, sweepCellsPerPass, sweepCellsPerPass, 10 * sweepCellsPerPass, 0},
	{"fleet-aging", newFleetAging, 3000, 100, 2000, 20000},
	{"record-replay", newRecordReplay, 20, 20, 200, 0},
}

// countAllocs builds an instance of a workload at the default seed, runs
// one warm-up op and then ops ops with the collector paused, and returns
// the heap allocations (MemStats.Mallocs) and the items of those ops.
// done is called once per counted op with its error.
//
// A GC empties sync.Pool caches and the runtime's own allocations depend
// on when it runs, so a count taken with the collector at its own pace
// depends on timing; paused, the count repeats exactly. The seed is
// fixed because on fleet-aging the allocations follow the restarts,
// whose times come from the seed: over 3000 batches the count moved by
// about 5 % from seed to seed.
func countAllocs(newWl func(options) (workload, error), ops int, opt options, done func(error)) (allocs uint64, items int64, err error) {
	opt.seed, opt.tracer = defaultSeed, nil
	wl, err := newWl(opt)
	if err != nil {
		return 0, 0, err
	}
	defer wl.close()
	wl.prepare()
	if _, err := wl.op(); err != nil {
		return 0, 0, fmt.Errorf("warm-up op: %w", err)
	}
	gcPercent := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(gcPercent)
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	for i := 0; i < ops; i++ {
		wl.prepare()
		runtime.ReadMemStats(&ms0)
		n, err := wl.op()
		runtime.ReadMemStats(&ms1)
		done(err)
		if err == nil {
			items += n
			allocs += ms1.Mallocs - ms0.Mallocs
		}
	}
	return allocs, items, nil
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is the full saved result of one run (--out), with provenance.
type record struct {
	Workload   string            `json:"workload"`
	Seed       uint64            `json:"seed"`
	Seconds    float64           `json:"seconds"`
	Trace      bool              `json:"trace"`
	Provenance provenance        `json:"provenance"`
	Result     result            `json:"result"`
	Extra      map[string]metric `json:"extra"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(runCompare(os.Args[2:], os.Stdout))
	}
	var (
		name    = flag.String("workload", "all", "workload: paper-sweep, fleet-aging, record-replay or all")
		seed    = flag.Uint64("seed", defaultSeed, "workload seed")
		seconds = flag.Float64("seconds", 36, "measured seconds per run")
		trace   = flag.Int("trace", 0, "1 records spans and a CPU profile and reports per-layer metrics")
		check   = flag.Bool("check", false, "run the output checks at the default and held-out seeds and exit")
		out     = flag.String("out", "", "append the full run record (JSON) to this file")
	)
	flag.Parse()
	if *check {
		os.Exit(runCheck(os.Stdout))
	}
	if *name == "all" {
		os.Exit(runAll(*seed, *seconds, *out, os.Stdout))
	}
	rec, err := runOne(*name, options{seed: *seed}, *seconds, *trace == 1, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if *out != "" {
		if err := appendRecord(*out, rec); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
	}
	line, err := json.Marshal(rec.Result)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// lookup returns the constructor entry of a workload.
func lookup(name string) (int, error) {
	for i, w := range workloads {
		if w.name == name {
			return i, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return -1, fmt.Errorf("unknown workload %q (want %s or all)", name, strings.Join(names, ", "))
}

// runOne sets a workload up, measures it and checks its outputs. It
// prints human-readable lines to w; the caller prints the JSON result.
func runOne(name string, opt options, seconds float64, traced bool, w io.Writer) (record, error) {
	out := &printer{w: w}
	wi, err := lookup(name)
	if err != nil {
		return record{}, err
	}
	spec := workloads[wi]
	rec := record{Workload: name, Seed: opt.seed, Seconds: seconds, Trace: traced,
		Provenance: readProvenance(opt.seed), Extra: map[string]metric{}}
	var tr *tracer
	if traced {
		tr = newTracer()
	}

	// Set-up: construction plus one untimed warm-up op, several times;
	// the last instance is the one measured.
	var wl workload
	cal := newCalibrator()
	setups := make([]float64, 0, setupRounds)
	for i := 0; i < setupRounds; i++ {
		if wl != nil {
			wl.close()
		}
		o := opt
		if i == setupRounds-1 {
			o.tracer = tr
		}
		runtime.GC() // each set-up starts from the same clean heap
		scale := cal.scale()
		start := time.Now()
		wl, err = spec.new(o)
		if err != nil {
			return rec, fmt.Errorf("%s: set-up: %w", name, err)
		}
		wl.prepare()
		if _, err := wl.op(); err != nil {
			wl.close()
			return rec, fmt.Errorf("%s: warm-up op: %w", name, err)
		}
		setups = append(setups, time.Since(start).Seconds()*scale)
	}
	defer wl.close()

	var (
		attempted, failed int64
		firstErr          error
	)
	fail := func(err error) {
		failed++
		if firstErr == nil {
			firstErr = err
		}
	}
	allocs, allocItems, err := countAllocs(spec.new, spec.allocOps, opt, func(err error) {
		attempted++
		if err != nil {
			fail(err)
		}
	})
	if err != nil {
		return rec, fmt.Errorf("%s: allocation count: %w", name, err)
	}

	// An untimed prefix lets the measured instance leave its start-up
	// phase (on paper-sweep, it completes the first pass).
	for i := 0; i < spec.warmOps; i++ {
		wl.prepare()
		_, err := wl.op()
		attempted++
		if err != nil {
			fail(err)
		}
	}
	tr.reset() // spans cover the timed ops only

	runtime.GC()
	sentinelBefore := sentinel()

	var prof *os.File
	profPath := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.cpu.pprof", name, opt.seed))
	if traced {
		if err := os.MkdirAll(traceDir, 0o755); err != nil {
			return rec, err
		}
		if prof, err = os.Create(profPath); err != nil {
			return rec, err
		}
		if err := pprof.StartCPUProfile(prof); err != nil {
			_ = prof.Close()
			return rec, err
		}
	}

	var (
		durs          []float64 // op wall times, µs
		heaps         []float64 // heap after each op, MB
		items         int64
		heapSample    = []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		cpuSamples    = cpuSampleSet()
		cpuBefore     = readCPU(cpuSamples)
		deadline      = time.Now().Add(time.Duration(seconds * float64(time.Second)))
		measuredStart = time.Now()
	)
	cal.sample(0)
	for len(durs) == 0 || time.Now().Before(deadline) {
		if cal.due() {
			cal.sample(len(durs))
		}
		wl.prepare()
		if tr != nil {
			tr.nextOp()
		}
		t0 := time.Now()
		n, err := wl.op()
		d := time.Since(t0)
		attempted++
		durs = append(durs, float64(d.Nanoseconds())/1e3)
		if err != nil {
			fail(err)
		} else {
			items += n
		}
		metrics.Read(heapSample)
		heaps = append(heaps, float64(heapSample[0].Value.Uint64())/(1<<20))
	}
	measured := time.Since(measuredStart)
	cpuAfter := readCPU(cpuSamples)
	if traced {
		pprof.StopCPUProfile()
		if err := prof.Close(); err != nil {
			return rec, err
		}
	}
	sentinelAfter := sentinel()

	bad, checkErr := wl.check()
	if checkErr != nil {
		failed += int64(bad)
		if failed > attempted {
			failed = attempted
		}
		out.printf("%s: output check failed: %v\n", name, checkErr)
	}
	if firstErr != nil {
		out.printf("%s: %d op(s) failed, first: %v\n", name, failed, firstErr)
	}

	// The end-to-end timings are taken from the calibrated op times;
	// the wall-clock figures are printed beside them.
	cdurs := cal.normalize(durs)
	tailOf := func(xs []float64) float64 {
		v, _ := tailLatency(xs)
		return v
	}
	p50 := quantile(cdurs, 0.5)
	tail, windows := perWindow(cdurs, spec.window, tailOf)
	wallTail, _ := perWindow(durs, spec.window, tailOf)
	_, tailQ := tailLatency(durs[:min(len(durs), spec.window)])
	if spec.heapOps > 0 && len(heaps) > spec.heapOps {
		heaps = heaps[:spec.heapOps]
	}
	peakHeap, _ := perWindow(heaps, heapWindow, maxOf)
	var allocsPerItem float64
	if allocItems > 0 {
		allocsPerItem = float64(allocs) / float64(allocItems)
	}
	itemsPerS := float64(items) / (sum(cdurs) / 1e6)
	wallItemsPerS := float64(items) / (sum(durs) / 1e6)
	m := map[string]metric{}
	if traced {
		for _, l := range perLayer {
			m[l.name] = metric{0, l.unit}
		}
		m["trace.items_per_s"] = metric{itemsPerS, "1/s"}
		m["runtime.gc_share"] = metric{gcShare(cpuBefore, cpuAfter), "fraction"}
		tr.layers(m)
		wl.layers(m)
		shares, err := packageShares(profPath)
		if err != nil {
			return rec, fmt.Errorf("%s: splitting the CPU profile: %w", name, err)
		}
		for _, pkg := range profiledPackages {
			m[pkg+".cpu_share"] = metric{shares[pkg], "fraction"}
		}
		spanPath := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.spans.jsonl", name, opt.seed))
		if err := tr.write(spanPath); err != nil {
			return rec, err
		}
		out.printf("%s: wrote %d spans to %s and a CPU profile to %s\n", name, len(tr.spans), spanPath, profPath)
	} else {
		m["setup_s"] = metric{median(setups), "s"}
		m["items_per_s"] = metric{itemsPerS, "1/s"}
		m["op_p50_us"] = metric{p50, "us"}
		m["op_tail_us"] = metric{tail, "us"}
		m["peak_heap_mb"] = metric{peakHeap, "MB"}
		m["allocs_per_item"] = metric{allocsPerItem, "allocs/item"}
	}
	failedFrac := float64(failed) / float64(attempted)
	rec.Extra["failed_frac"] = metric{failedFrac, "fraction"}
	rec.Extra["op_tail_percentile"] = metric{tailQ * 100, "%"}
	rec.Extra["op_samples"] = metric{float64(len(durs)), "count"}
	rec.Extra["windows"] = metric{float64(windows), "count"}
	rec.Extra["measured_s"] = metric{measured.Seconds(), "s"}
	rec.Extra["wall_items_per_s"] = metric{wallItemsPerS, "1/s"}
	rec.Extra["wall_op_p50_us"] = metric{quantile(durs, 0.5), "us"}
	rec.Extra["wall_op_tail_us"] = metric{wallTail, "us"}
	rec.Extra["calibration_us"] = metric{cal.medianUs(), "us"}
	rec.Extra["calibration_samples"] = metric{float64(len(cal.us)), "count"}
	rec.Extra["sentinel_before_ms"] = metric{sentinelBefore, "ms"}
	rec.Extra["sentinel_after_ms"] = metric{sentinelAfter, "ms"}
	rec.Result = result{
		Correct:   checkErr == nil && failed == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   m,
	}

	printProvenance(out, rec.Provenance)
	out.printf("%s seed=%d trace=%v: %d timed ops in %.2fs; op_tail_us is p%.4g of each window of %d ops, median of %d windows; sentinel %.3f -> %.3f ms\n",
		name, opt.seed, traced, len(durs), measured.Seconds(), tailQ*100, spec.window, windows, sentinelBefore, sentinelAfter)
	printMetrics(out, m)
	out.printf("  %-34s %.6g fraction (%d of %d ops)\n", "failed_frac", failedFrac, failed, attempted)
	out.printf("  set-ups, calibrated, s: %.4g\n", setups)
	out.printf("  wall clock, uncalibrated: items_per_s %.6g, op_p50_us %.6g, op_tail_us %.6g; calibration loop median %.6g us over %d samples\n",
		wallItemsPerS, rec.Extra["wall_op_p50_us"].Value, wallTail, cal.medianUs(), len(cal.us))
	return rec, out.err
}

// printMetrics prints one line per metric, sorted by name.
func printMetrics(out *printer, m map[string]metric) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		out.printf("  %-34s %.6g %s\n", k, m[k].Value, m[k].Unit)
	}
}

// printer writes formatted text to w and keeps the first write error.
type printer struct {
	w   io.Writer
	err error
}

func (p *printer) printf(format string, args ...any) {
	if p.err == nil {
		_, p.err = fmt.Fprintf(p.w, format, args...)
	}
}

// appendRecord appends rec as one JSON line to path.
func appendRecord(path string, rec record) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// runAll runs every workload untraced and then traced, printing all
// metrics and the tracing overhead. It returns the exit code.
func runAll(seed uint64, seconds float64, outPath string, w io.Writer) int {
	out := &printer{w: w}
	code := 0
	for _, spec := range workloads {
		plain, err := runOne(spec.name, options{seed: seed}, seconds, false, w)
		if err != nil {
			out.printf("perfbench: %v\n", err)
			return 1
		}
		traced, err := runOne(spec.name, options{seed: seed}, seconds, true, w)
		if err != nil {
			out.printf("perfbench: %v\n", err)
			return 1
		}
		overhead := 1 - traced.Result.Metrics["trace.items_per_s"].Value/plain.Result.Metrics["items_per_s"].Value
		out.printf("%s: tracing overhead %.1f%% of items_per_s\n\n", spec.name, 100*overhead)
		if !plain.Result.Correct || !traced.Result.Correct {
			code = 1
		}
		if outPath != "" {
			for _, r := range []record{plain, traced} {
				if err := appendRecord(outPath, r); err != nil {
					out.printf("perfbench: %v\n", err)
					return 1
				}
			}
		}
	}
	return code
}

// runCheck runs every workload briefly at the default and the held-out
// seed and reports whether every output check passed.
func runCheck(w io.Writer) int {
	out := &printer{w: w}
	code := 0
	for _, seed := range []uint64{defaultSeed, heldOutSeed} {
		for _, spec := range workloads {
			rec, err := runOne(spec.name, options{seed: seed}, 1, false, io.Discard)
			switch {
			case err != nil:
				out.printf("FAIL %-13s seed=%-3d %v\n", spec.name, seed, err)
				code = 1
			case !rec.Result.Correct:
				out.printf("FAIL %-13s seed=%-3d failed_frac=%.4g\n", spec.name, seed, rec.Extra["failed_frac"].Value)
				code = 1
			default:
				out.printf("ok   %-13s seed=%-3d %d ops, failed_frac=0\n", spec.name, seed, rec.Result.Attempted)
			}
		}
	}
	return code
}
