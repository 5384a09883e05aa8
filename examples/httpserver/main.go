// HTTP server scenario: the paper's motivating case was an e-commerce
// system whose customer-affecting metric — response time — was not
// monitored, so a fault that degraded it eluded detection for months
// while CPU and memory charts looked fine.
//
// This example runs a real net/http server with an injected aging fault
// (service time grows with every request served since the last restart),
// times every request with the Monitor middleware, and lets a SARAA
// detector trigger "rejuvenation" (resetting the aging state, as a
// process restart would). A load generator drives the server and the
// program prints the observed response-time profile around each
// rejuvenation.
//
// The server also exposes the full observability surface:
//
//   - /metrics serves the rejuv metrics registry in Prometheus text
//     exposition format (add ?format=json for a JSON snapshot): the
//     request-latency histogram, trigger counters, and the detector's
//     bucket-occupancy gauges.
//   - /fleetz serves the fleet health snapshot (JSON, or human text
//     with ?format=text) of a fleet engine mirroring the same stream:
//     top-K aging streams, level histogram with exemplars, queue and
//     self telemetry. Render it live with: rejuvtop -url .../fleetz
//   - /debug/pprof/ serves the standard Go profiling endpoints when the
//     -pprof flag is set.
//
// After the load run the program scrapes its own /metrics and prints the
// detector series, then dumps the trace-log context that explains the
// last trigger: the sample means that walked the buckets to overflow.
//
// Run with:
//
//	go run ./examples/httpserver [-pprof]
package main

import (
	"bufio"
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/http/pprof"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rejuv"
)

// agingHandler simulates a leaky service: each request takes a base time
// plus a penalty that grows with the number of requests served since the
// last restart.
type agingHandler struct {
	served atomic.Int64
	base   time.Duration
	leak   time.Duration // extra delay added per 100 requests served
}

func (h *agingHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	n := h.served.Add(1)
	delay := h.base + time.Duration(n/100)*h.leak
	time.Sleep(delay)
	_, _ = fmt.Fprintln(w, "ok")
}

// restart is the rejuvenation action: in production this would recycle
// the worker process; here it clears the aging state.
func (h *agingHandler) restart() { h.served.Store(0) }

func main() {
	pprofOn := flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/")
	journalP := flag.String("journal", "", "record a flight-recorder journal of every observation and decision to this file (inspect with rejuvtrace)")
	flag.Parse()

	handler := &agingHandler{base: 2 * time.Millisecond, leak: 2 * time.Millisecond}

	// SLA baseline: the healthy service answers in ~2 ms with little
	// variance. SARAA with acceleration reacts quickly once degradation
	// is confirmed.
	detector, err := rejuv.NewSARAA(rejuv.SARAAConfig{
		InitialSampleSize: 4,
		Buckets:           3,
		Depth:             4,
		Baseline:          rejuv.Baseline{Mean: 0.002, StdDev: 0.001},
	})
	fatalIf(err)

	// The journal records every observation and decision; after the run
	// it is verified by replay and can be inspected with rejuvtrace.
	var jw *rejuv.JournalWriter
	var journalBuf *bytes.Buffer
	var journalFile *os.File
	var journalOut *bufio.Writer
	if *journalP != "" {
		meta := rejuv.JournalMeta{
			CreatedBy: "examples/httpserver",
			Detector:  "SARAA (n=4, K=3, D=4)",
			Notes:     "injected aging fault, +2ms per 100 requests",
		}
		if *journalP == "-" {
			journalBuf = &bytes.Buffer{}
			jw = rejuv.NewJournalWriter(journalBuf, meta)
		} else {
			f, err := os.Create(*journalP)
			fatalIf(err)
			journalFile = f
			journalOut = bufio.NewWriter(f)
			jw = rejuv.NewJournalWriter(journalOut, meta)
		}
	}

	registry := rejuv.NewRegistry()
	trace := rejuv.NewTraceLog(256)
	trace.Instrument(registry)
	collector := rejuv.NewCollector(registry, rejuv.Label{Name: "algo", Value: "SARAA"})

	// A fleet engine mirrors the same response times, as a fleet-scale
	// deployment would run it: one stream here, but the /fleetz endpoint
	// and rejuvtop work unchanged at a hundred thousand. Health stays on
	// (the default top-K sketch) so the endpoint ranks aging streams.
	fleetEng, err := rejuv.NewFleet(rejuv.FleetConfig{
		Classes: []rejuv.StreamClass{{
			Name: "http", Family: rejuv.FamilySARAA,
			SampleSize: 4, Buckets: 3, Depth: 4,
			Baseline: rejuv.Baseline{Mean: 0.002, StdDev: 0.001},
		}},
	})
	fatalIf(err)
	defer fleetEng.Close()
	const fleetStream = rejuv.StreamID(1)
	fatalIf(fleetEng.OpenStream(fleetStream, "http"))

	// The restart goes through an Actuator because real restart RPCs
	// flake: this one refuses every first attempt (a busy supervisor) and
	// succeeds on the retry, so the backoff schedule carries each
	// rejuvenation to success and the journal records the retry timeline.
	var restartAttempts atomic.Int64
	actuator, err := rejuv.NewActuator(rejuv.ActuatorConfig{
		Do: func(context.Context) error {
			if restartAttempts.Add(1)%2 == 1 {
				return fmt.Errorf("restart rpc refused (supervisor busy)")
			}
			handler.restart()
			return nil
		},
		MaxAttempts: 3,
		Backoff:     2 * time.Millisecond,
		MaxBackoff:  10 * time.Millisecond,
		Seed:        1,
		Journal:     jw,
		Epoch:       time.Now(),
		Metrics:     registry,
		OnGiveUp: func(err error) {
			fmt.Println("  rejuvenation ESCALATED:", err)
		},
	})
	fatalIf(err)

	var mu sync.Mutex
	var rejuvenations []int64 // request count at each trigger
	monitor, err := rejuv.NewMonitor(rejuv.MonitorConfig{
		Detector:  detector,
		Cooldown:  50 * time.Millisecond,
		Collector: collector,
		Trace:     trace,
		Journal:   jw,
		// MaxSilence arms the staleness watchdog; with the load generator
		// running it never trips, but a wedged server would be flagged.
		MaxSilence: 10 * time.Second,
		OnTrigger: func(t rejuv.Trigger) {
			mu.Lock()
			rejuvenations = append(rejuvenations, int64(t.Observations))
			mu.Unlock()
			// Execute synchronously: the journal writer is shared with the
			// monitor and is not safe for concurrent use. ExecuteFor stamps
			// the trigger's id on the actuator's journal records, so
			// rejuvtrace -trigger renders the whole causality chain.
			fatalIf(actuator.ExecuteFor(context.Background(), t.ID))
			fmt.Printf("  rejuvenation at request %4d (sample mean %.1f ms, trigger id %#x)\n",
				t.Observations, t.Decision.SampleMean*1000, t.ID)
		},
	})
	fatalIf(err)

	// The fleet mirror rides an outer middleware: it times each request
	// itself and batches the value into the engine.
	mirror := func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			start := time.Now()
			next.ServeHTTP(w, r)
			fleetEng.ObserveBatch([]rejuv.StreamObs{
				{Stream: fleetStream, Value: time.Since(start).Seconds()},
			})
		})
	}

	mux := http.NewServeMux()
	mux.Handle("/", mirror(monitor.Middleware(handler)))
	mux.Handle("/metrics", registry.Handler())
	mux.Handle("/fleetz", rejuv.FleetzHandler(fleetEng, collector.Observed()))
	if *pprofOn {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}

	srv := httptest.NewServer(mux)
	defer srv.Close()
	fmt.Printf("serving on %s with an injected aging fault (+%v per 100 requests)\n",
		srv.URL, handler.leak)
	fmt.Printf("metrics at %s/metrics, fleet health at %s/fleetz", srv.URL, srv.URL)
	if *pprofOn {
		fmt.Printf(", profiles at %s/debug/pprof/", srv.URL)
	}
	fmt.Print("\n\n")

	client := srv.Client()
	const requests = 1200
	var worst time.Duration
	for i := 1; i <= requests; i++ {
		start := time.Now()
		resp, err := client.Get(srv.URL)
		fatalIf(err)
		_ = resp.Body.Close()
		if d := time.Since(start); d > worst {
			worst = d
		}
	}

	s := monitor.Stats()
	fmt.Printf("\n%d requests, %d rejuvenations, worst response %v\n",
		requests, s.Triggers, worst.Round(time.Millisecond))
	as := actuator.Stats()
	fmt.Printf("actuator: %d executions, %d attempts, %d retried past a refused restart, %d gave up\n",
		as.Executions, as.Attempts, as.Retries, as.GiveUps)
	if s.Triggers == 0 {
		fmt.Println("warning: aging was never detected — check the baseline")
		os.Exit(1)
	}

	// Scrape our own /metrics and show the detector's state as a
	// Prometheus scraper would see it.
	fmt.Println("\n/metrics excerpt (detector and trigger series):")
	resp, err := client.Get(srv.URL + "/metrics")
	fatalIf(err)
	body, err := io.ReadAll(resp.Body)
	fatalIf(err)
	_ = resp.Body.Close()
	for _, line := range strings.Split(string(body), "\n") {
		if strings.HasPrefix(line, "rejuv_detector_") ||
			strings.HasPrefix(line, "rejuv_triggers_total") ||
			strings.HasPrefix(line, "rejuv_observed_metric_count") {
			fmt.Println("  " + line)
		}
	}

	// The /fleetz text view is what rejuvtop renders: the fleet mirror's
	// health — one stream here, the same surface at fleet scale.
	fmt.Println("\n/fleetz?format=text (fleet health, as rejuvtop renders it):")
	resp, err = client.Get(srv.URL + "/fleetz?format=text")
	fatalIf(err)
	body, err = io.ReadAll(resp.Body)
	fatalIf(err)
	_ = resp.Body.Close()
	for _, line := range strings.Split(strings.TrimRight(string(body), "\n"), "\n") {
		fmt.Println("  " + line)
	}

	// The trace log explains the last trigger: each line is one detector
	// evaluation with its inputs — the evidence behind the decision.
	fmt.Println("\ntrace context of the last trigger (sample means vs. targets):")
	for _, e := range trace.TriggerContext(4) {
		mark := ""
		if e.Triggered {
			mark = "  << trigger"
		}
		fmt.Printf("  obs %4d: mean %6.1f ms vs target %6.1f ms, bucket level %d fill %d%s\n",
			e.Seq, e.SampleMean*1000, e.Target*1000, e.Level, e.Fill, mark)
	}

	// Close out the journal and prove the decision stream replays
	// byte-identically — the flight recorder is trustworthy evidence.
	if jw != nil {
		fatalIf(jw.Err())
		var journalData io.Reader
		switch {
		case journalBuf != nil:
			journalData = bytes.NewReader(journalBuf.Bytes())
		default:
			fatalIf(journalOut.Flush())
			fatalIf(journalFile.Close())
			f, err := os.Open(*journalP)
			fatalIf(err)
			defer f.Close()
			journalData = f
		}
		jr, err := rejuv.NewJournalReader(journalData)
		fatalIf(err)
		rep, err := rejuv.ReplayJournal(jr, func() (rejuv.Detector, error) {
			return rejuv.NewSARAA(rejuv.SARAAConfig{
				InitialSampleSize: 4, Buckets: 3, Depth: 4,
				Baseline: rejuv.Baseline{Mean: 0.002, StdDev: 0.001},
			})
		})
		fatalIf(err)
		fmt.Printf("\njournal: %d observations, %d decisions recorded", rep.Observations, rep.Decisions)
		if journalFile != nil {
			fmt.Printf(" to %s (inspect with rejuvtrace)", *journalP)
		}
		fmt.Println()
		if rep.Identical() {
			fmt.Println("journal replay: decision stream verified byte-identical")
		} else {
			fmt.Println("journal replay DIVERGED:", rep.Mismatch.Error())
			os.Exit(1)
		}
	}

	fmt.Println("\nresponse time stayed bounded because the monitor watched the metric")
	fmt.Println("customers experience, not CPU or memory proxies.")
}

func fatalIf(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "httpserver example:", err)
		os.Exit(1)
	}
}
