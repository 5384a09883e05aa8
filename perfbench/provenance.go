package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
)

// provenance records the settings a run's numbers depend on. Two runs
// are comparable only when every field but Seed matches.
type provenance struct {
	GoVersion   string `json:"go_version"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	GOGC        string `json:"gogc"`
	Affinity    string `json:"cpu_affinity"`
	NumCPU      int    `json:"nproc"`
	CPUModel    string `json:"cpu_model"`
	Seed        uint64 `json:"seed"`
	SentinelRef string `json:"sentinel"`
}

// sentinelName identifies the reference loop, so a changed loop never
// compares against an old one.
const sentinelName = "xorshift-sort-8k-v2"

// readProvenance collects the run settings.
func readProvenance(seed uint64) provenance {
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100"
	}
	return provenance{
		GoVersion:   runtime.Version(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		GOGC:        gogc,
		Affinity:    procField("/proc/self/status", "Cpus_allowed_list"),
		NumCPU:      runtime.NumCPU(),
		CPUModel:    procField("/proc/cpuinfo", "model name"),
		Seed:        seed,
		SentinelRef: sentinelName,
	}
}

// procField returns the value of the first "key: value" line of a proc
// file, or "unknown".
func procField(path, key string) string {
	f, err := os.Open(path)
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == key {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// printProvenance prints the settings line of a run.
func printProvenance(out *printer, p provenance) {
	out.printf("provenance: go=%s GOMAXPROCS=%d GOGC=%s affinity=%s nproc=%d cpu=%q seed=%d\n",
		p.GoVersion, p.GOMAXPROCS, p.GOGC, p.Affinity, p.NumCPU, p.CPUModel, p.Seed)
}

// sentinelSink keeps the reference loop's result live.
var sentinelSink uint64

// sentinel times the calibration loop (see calibrate.go) five times and
// returns the median in milliseconds. It does the same work on every
// commit, so a move in it is the machine, not the change.
func sentinel() float64 {
	c := newCalibrator()
	reps := make([]float64, 5)
	for r := range reps {
		reps[r] = c.run() / 1e3
	}
	return median(reps)
}

// sentinelBound is the relative move of the sentinel past which a run
// is flagged as taken on a machine that changed speed.
const sentinelBound = 0.10

// runCompare compares saved run records (JSON lines written with --out):
// the first file is the base, the rest candidates. Records whose
// settings differ from the base are refused; runs whose sentinel moved
// past sentinelBound are flagged and kept. It prints, per workload and
// metric, the median of each side and their ratio.
func runCompare(paths []string, w io.Writer) int {
	out := &printer{w: w}
	if len(paths) < 2 {
		out.printf("usage: perfbench compare BASE.json CANDIDATE.json [...]\n")
		return 2
	}
	sides := make([][]record, len(paths))
	for i, path := range paths {
		recs, err := readRecords(path)
		if err != nil {
			out.printf("perfbench compare: %v\n", err)
			return 2
		}
		if len(recs) == 0 {
			out.printf("perfbench compare: %s holds no records\n", path)
			return 2
		}
		sides[i] = recs
	}
	ref := sides[0][0].Provenance
	for i, recs := range sides {
		for j, r := range recs {
			if why := incomparable(ref, r.Provenance); why != "" {
				out.printf("REFUSED: %s record %d: %s\n", paths[i], j+1, why)
				return 1
			}
			before := r.Extra["sentinel_before_ms"].Value
			after := r.Extra["sentinel_after_ms"].Value
			if before > 0 && math.Abs(after/before-1) > sentinelBound {
				out.printf("FLAGGED: %s record %d (%s seed %d): sentinel moved %.3f -> %.3f ms\n",
					paths[i], j+1, r.Workload, r.Seed, before, after)
			}
		}
	}
	type key struct{ workload, metric string }
	values := make([]map[key][]float64, len(sides))
	var keys []key
	seen := map[key]bool{}
	for i, recs := range sides {
		values[i] = map[key][]float64{}
		for _, r := range recs {
			for name, m := range r.Result.Metrics {
				k := key{r.Workload, name}
				values[i][k] = append(values[i][k], m.Value)
				if !seen[k] {
					seen[k] = true
					keys = append(keys, k)
				}
			}
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return keys[i].metric < keys[j].metric
	})
	for _, k := range keys {
		base := values[0][k]
		if len(base) == 0 {
			continue
		}
		b := median(base)
		out.printf("%-14s %-32s base %-12.6g", k.workload, k.metric, b)
		for i := 1; i < len(sides); i++ {
			if c := values[i][k]; len(c) > 0 {
				out.printf(" cand %-12.6g (x%.4f)", median(c), median(c)/b)
			}
		}
		out.printf("\n")
	}
	return 0
}

// incomparable returns why two runs' settings differ, or "".
func incomparable(a, b provenance) string {
	switch {
	case a.GoVersion != b.GoVersion:
		return fmt.Sprintf("go version %s vs %s", a.GoVersion, b.GoVersion)
	case a.GOMAXPROCS != b.GOMAXPROCS:
		return fmt.Sprintf("GOMAXPROCS %d vs %d", a.GOMAXPROCS, b.GOMAXPROCS)
	case a.GOGC != b.GOGC:
		return fmt.Sprintf("GOGC %s vs %s", a.GOGC, b.GOGC)
	case a.Affinity != b.Affinity:
		return fmt.Sprintf("CPU affinity %s vs %s", a.Affinity, b.Affinity)
	case a.NumCPU != b.NumCPU:
		return fmt.Sprintf("nproc %d vs %d", a.NumCPU, b.NumCPU)
	case a.CPUModel != b.CPUModel:
		return fmt.Sprintf("CPU %q vs %q", a.CPUModel, b.CPUModel)
	case a.SentinelRef != b.SentinelRef:
		return fmt.Sprintf("sentinel %s vs %s", a.SentinelRef, b.SentinelRef)
	}
	return ""
}

// readRecords reads the JSON-lines records of one file.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	dec := json.NewDecoder(f)
	for {
		var r record
		if err := dec.Decode(&r); err == io.EOF {
			return recs, nil
		} else if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		recs = append(recs, r)
	}
}
