// Command rejuvmon watches a stream of response-time observations (one
// number per line on stdin, seconds by default) and prints a line
// whenever the configured rejuvenation algorithm triggers — optionally
// running a shell command as the rejuvenation action. It turns the
// paper's algorithms into a composable Unix filter:
//
//	tail -f access.log | awk '{print $NF}' | rejuvmon -algo SRAA -n 3 -k 2 -d 5 -mean 0.12 -sd 0.1
//
// With -adaptive N the baseline (mean, sd) is learned from the first N
// observations instead of -mean/-sd. With -trace every observation and
// decision is journaled to stderr in the JSON-lines journal codec; add
// -q and stderr is a journal rejuvtrace can read.
//
// Exit status is 0 on clean EOF, 1 on input or configuration errors.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"rejuv"
)

func main() {
	var (
		algo     = flag.String("algo", "SRAA", "algorithm: SRAA, SARAA, CLTA, Shewhart, EWMA, CUSUM")
		n        = flag.Int("n", 3, "sample size (n_orig for SARAA)")
		k        = flag.Int("k", 2, "number of buckets K")
		d        = flag.Int("d", 5, "bucket depth D")
		quantile = flag.Float64("quantile", 1.96, "CLTA quantile / Shewhart,EWMA limit / CUSUM threshold")
		weight   = flag.Float64("weight", 0.2, "EWMA weight / CUSUM slack")
		mean     = flag.Float64("mean", 0, "baseline mean (required unless -adaptive)")
		sd       = flag.Float64("sd", 0, "baseline standard deviation (required unless -adaptive)")
		adaptive = flag.Int("adaptive", 0, "learn the baseline from the first N observations")
		cooldown = flag.Duration("cooldown", time.Minute, "suppress triggers for this long after one")
		action   = flag.String("exec", "", "shell command to run on each trigger")
		trace    = flag.Bool("trace", false, "write a JSON-lines journal of every observation and decision to stderr (readable by rejuvtrace)")
		quiet    = flag.Bool("q", false, "print only trigger lines, not the startup banner")
	)
	flag.Parse()

	build := func(b rejuv.Baseline) (rejuv.Detector, error) {
		switch strings.ToUpper(*algo) {
		case "SRAA":
			return rejuv.NewSRAA(rejuv.SRAAConfig{SampleSize: *n, Buckets: *k, Depth: *d, Baseline: b})
		case "SARAA":
			return rejuv.NewSARAA(rejuv.SARAAConfig{InitialSampleSize: *n, Buckets: *k, Depth: *d, Baseline: b})
		case "CLTA":
			return rejuv.NewCLTA(rejuv.CLTAConfig{SampleSize: *n, Quantile: *quantile, Baseline: b})
		case "SHEWHART":
			return rejuv.NewShewhart(*quantile, b)
		case "EWMA":
			return rejuv.NewEWMA(*weight, *quantile, b)
		case "CUSUM":
			return rejuv.NewCUSUM(*weight, *quantile, b)
		default:
			return nil, fmt.Errorf("unknown algorithm %q", *algo)
		}
	}

	var detector rejuv.Detector
	var err error
	if *adaptive > 0 {
		detector, err = rejuv.NewAdaptive(*adaptive, build)
	} else {
		detector, err = build(rejuv.Baseline{Mean: *mean, StdDev: *sd})
	}
	fatalIf(err)
	var journal *rejuv.JournalWriter
	if *trace {
		journal = rejuv.NewJournalJSONWriter(os.Stderr, rejuv.JournalMeta{CreatedBy: "rejuvmon", Detector: *algo})
	}

	monitor, err := rejuv.NewMonitor(rejuv.MonitorConfig{
		Detector: detector,
		Cooldown: *cooldown,
		Journal:  journal,
		OnTrigger: func(t rejuv.Trigger) {
			fmt.Printf("%s TRIGGER observation=%d sample_mean=%g\n",
				t.Time.Format(time.RFC3339), t.Observations, t.Decision.SampleMean)
			if *action != "" {
				cmd := exec.Command("/bin/sh", "-c", *action)
				cmd.Stdout = os.Stdout
				cmd.Stderr = os.Stderr
				if err := cmd.Run(); err != nil {
					fmt.Fprintln(os.Stderr, "rejuvmon: action failed:", err)
				}
			}
		},
	})
	fatalIf(err)

	if !*quiet {
		fmt.Fprintf(os.Stderr, "rejuvmon: %s watching stdin (cooldown %v)\n", *algo, *cooldown)
	}
	scanner := bufio.NewScanner(os.Stdin)
	scanner.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	// Label the observe loop so CPU profiles attribute parsing and
	// detector evaluation to this phase.
	pprof.Do(context.Background(), pprof.Labels("rejuv_phase", "observe-loop"), func(context.Context) {
		line := 0
		for scanner.Scan() {
			line++
			text := strings.TrimSpace(scanner.Text())
			if text == "" || strings.HasPrefix(text, "#") {
				continue
			}
			v, err := strconv.ParseFloat(text, 64)
			if err != nil {
				fmt.Fprintf(os.Stderr, "rejuvmon: line %d: %q is not a number\n", line, text)
				os.Exit(1)
			}
			monitor.Observe(v)
		}
	})
	fatalIf(scanner.Err())
	if journal != nil {
		fatalIf(journal.Err())
	}
	s := monitor.Stats()
	if !*quiet {
		fmt.Fprintf(os.Stderr, "rejuvmon: %d observations, %d triggers, %d suppressed\n",
			s.Observations, s.Triggers, s.Suppressed)
	}
}

func fatalIf(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "rejuvmon:", err)
		os.Exit(1)
	}
}
