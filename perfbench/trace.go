package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"
)

// span is one timed call from the benchmark into a layer.
type span struct {
	name       string
	start, end int64 // ns since the tracer's epoch
	parent     int32 // index of the enclosing span, -1 for none
	op         int64 // the op the span belongs to
}

// tracer keeps spans in memory; they are written out when the run ends.
// A nil tracer records nothing, so untraced runs pay one nil test per
// boundary.
type tracer struct {
	epoch time.Time
	spans []span
	op    int64
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

// reset drops the spans recorded so far.
func (t *tracer) reset() {
	if t != nil {
		t.spans = t.spans[:0]
		t.op = 0
	}
}

// nextOp starts a new op id.
func (t *tracer) nextOp() { t.op++ }

// begin opens a span under parent (-1 for a root) and returns its index.
func (t *tracer) begin(name string, parent int32) int32 {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{name: name, start: int64(time.Since(t.epoch)), parent: parent, op: t.op})
	return int32(len(t.spans) - 1)
}

// end closes the span begun as id.
func (t *tracer) end(id int32) {
	if t != nil {
		t.spans[id].end = int64(time.Since(t.epoch))
	}
}

// spanStat aggregates the spans of one name.
type spanStat struct {
	count      int
	total, own float64 // ns; own is total minus time covered by child spans
}

// stats returns per-name span totals with self time.
func (t *tracer) stats() map[string]*spanStat {
	child := make([]float64, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += float64(s.end - s.start)
		}
	}
	out := map[string]*spanStat{}
	for i, s := range t.spans {
		st := out[s.name]
		if st == nil {
			st = &spanStat{}
			out[s.name] = st
		}
		d := float64(s.end - s.start)
		st.count++
		st.total += d
		st.own += d - child[i]
	}
	return out
}

// spanLayers maps span names to the per-layer metrics that report the
// mean span duration in µs.
var spanLayers = []struct{ span, metric string }{
	{"experiment.cell", "experiment.cell_us"},
	{"fleet.batch", "fleet.batch_us"},
	{"fleet.drain", "fleet.drain_us"},
	{"fleet.churn", "fleet.churn_us"},
	{"health.snapshot", "health.snapshot_us"},
	{"sched.call", "sched.call_us"},
}

// layers adds the span-derived per-layer metrics to m.
func (t *tracer) layers(m map[string]metric) {
	st := t.stats()
	for _, l := range spanLayers {
		if s := st[l.span]; s != nil && s.count > 0 {
			m[l.metric] = metric{s.total / float64(s.count) / 1e3, "us"}
		}
	}
}

// endToEnd lists the end-to-end metrics an untraced run reports.
var endToEnd = []string{"setup_s", "items_per_s", "op_p50_us", "op_tail_us", "peak_heap_mb", "allocs_per_item"}

// perLayer is the catalogue of per-layer metrics a traced run reports,
// on every workload: a layer the workload bypasses reports 0.
var perLayer = func() []layerMetric {
	l := []layerMetric{
		{"trace.items_per_s", "1/s"},
		{"runtime.gc_share", "fraction"},
		{"experiment.cell_us", "us"},
		{"ecommerce.self_us_per_cell", "us"},
		{"des.events_per_txn", "events/txn"},
		{"des.cancels_per_txn", "events/txn"},
		{"ecommerce.gc_stalls_per_cell", "count/cell"},
		{"ecommerce.rejuvenations_per_cell", "count/cell"},
		{"core.observe_ns", "ns"},
		{"core.observes_per_item", "calls/item"},
		{"fleet.batch_us", "us"},
		{"fleet.drain_us", "us"},
		{"fleet.churn_us", "us"},
		{"fleet.triggers_per_mobs", "1/Mobs"},
		{"fleet.suppressed_per_mobs", "1/Mobs"},
		{"fleet.rebaselines_per_mobs", "1/Mobs"},
		{"fleet.dropped_triggers", "count"},
		{"health.snapshot_us", "us"},
		{"sched.call_us", "us"},
		{"sched.requests_per_mobs", "1/Mobs"},
		{"sched.starts_per_mobs", "1/Mobs"},
		{"sched.start_ratio", "fraction"},
		{"sched.max_queue", "count"},
		{"sched.saturated", "count"},
		{"rejuv.observe_ns", "ns"},
		{"rejuv.trace_entries_per_kobs", "1/kobs"},
		{"journal.bytes_per_obs", "B/obs"},
		{"journal.records_per_obs", "records/obs"},
		{"journal.replay_ns_per_record", "ns"},
		{"journal.replay_allocs_per_record", "allocs/record"},
	}
	for _, pkg := range profiledPackages {
		l = append(l, layerMetric{pkg + ".cpu_share", "fraction"})
	}
	return l
}()

// layerMetric names a catalogued metric and its unit.
type layerMetric struct{ name, unit string }

// write saves the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	type jsonSpan struct {
		ID     int    `json:"id"`
		Name   string `json:"name"`
		Start  int64  `json:"start_ns"`
		End    int64  `json:"end_ns"`
		Parent int32  `json:"parent"`
		Op     int64  `json:"op"`
	}
	for i, s := range t.spans {
		if err := enc.Encode(jsonSpan{i, s.name, s.start, s.end, s.parent, s.op}); err != nil {
			_ = f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// profiledPackages are the repository packages whose share of CPU
// samples a traced run reports as <pkg>.cpu_share.
var profiledPackages = []string{
	"des", "ecommerce", "xrand", "dist", "core", "fleet", "metrics",
	"health", "sched", "journal", "rejuv",
}

// packageShares splits a CPU profile by package with `go tool pprof`:
// each function's flat samples are charged to its package, and each
// listed package's share of all samples is returned. Packages outside
// the repository fold into their own names and are not reported.
func packageShares(profPath string) (map[string]float64, error) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		goBin = filepath.Join(runtime.GOROOT(), "bin", "go")
	}
	cmd := exec.Command(goBin, "tool", "pprof", "-top", "-flat", "-nodecount=1000000",
		"-nodefraction=0", "-edgefraction=0", profPath)
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	flat := map[string]float64{}
	var total float64
	inTable := false
	for _, line := range strings.Split(string(out), "\n") {
		fields := strings.Fields(line)
		if len(fields) >= 5 && fields[0] == "flat" {
			inTable = true
			continue
		}
		if !inTable || len(fields) < 6 {
			continue
		}
		v, err := parseDuration(fields[0])
		if err != nil {
			return nil, fmt.Errorf("pprof line %q: %w", line, err)
		}
		fn := strings.Join(fields[5:], " ")
		flat[packageOf(fn)] += v
		total += v
	}
	shares := map[string]float64{}
	if total <= 0 {
		return shares, nil
	}
	for pkg, v := range flat {
		shares[pkg] = v / total
	}
	return shares, nil
}

// packageOf maps a pprof function name to its repository layer name:
// rejuv/internal/des.(*Simulator).Run -> des, rejuv.(*Monitor).Observe
// -> rejuv; other packages keep their import path.
func packageOf(fn string) string {
	path := fn
	if i := strings.LastIndex(path, "/"); i >= 0 {
		if j := strings.Index(path[i:], "."); j >= 0 {
			path = path[:i+j]
		}
	} else if j := strings.Index(path, "."); j >= 0 {
		path = path[:j]
	}
	switch {
	case strings.HasPrefix(path, "rejuv/internal/"):
		return strings.TrimPrefix(path, "rejuv/internal/")
	case path == "rejuv":
		return "rejuv"
	}
	return path
}

// parseDuration parses a pprof sample value such as "10ms" or "1.25s"
// into seconds.
func parseDuration(s string) (float64, error) {
	units := []struct {
		suffix string
		scale  float64
	}{{"ns", 1e-9}, {"us", 1e-6}, {"µs", 1e-6}, {"ms", 1e-3}, {"s", 1}, {"min", 60}, {"hrs", 3600}}
	for _, u := range units {
		if strings.HasSuffix(s, u.suffix) {
			v, err := strconv.ParseFloat(strings.TrimSuffix(s, u.suffix), 64)
			return v * u.scale, err
		}
	}
	return strconv.ParseFloat(s, 64)
}

// cpuSampleSet returns the runtime/metrics samples gcShare needs.
func cpuSampleSet() []metrics.Sample {
	return []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/user:cpu-seconds"},
	}
}

// readCPU reads the GC and user CPU seconds.
func readCPU(s []metrics.Sample) [2]float64 {
	metrics.Read(s)
	return [2]float64{s[0].Value.Float64(), s[1].Value.Float64()}
}

// gcShare is the GC's share of the CPU the process used between two
// readings.
func gcShare(before, after [2]float64) float64 {
	gc := after[0] - before[0]
	user := after[1] - before[1]
	if gc+user <= 0 {
		return 0
	}
	return gc / (gc + user)
}
