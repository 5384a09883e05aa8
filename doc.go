// Package rejuv detects software aging by monitoring a customer-affecting
// performance metric — typically response time — and decides when to
// trigger software rejuvenation, implementing the algorithms of
// Avritzer, Bondi, Grottke, Trivedi and Weyuker, "Performance Assurance
// via Software Rejuvenation: Monitoring, Statistics and Algorithms"
// (Proc. DSN 2006).
//
// # Detectors
//
// Three algorithm families from the paper are provided:
//
//   - SRAA — static rejuvenation with averaging: block means of n
//     observations drive a ball-and-bucket counter against targets
//     mean + N*sd; K bucket overflows trigger rejuvenation. With n = 1
//     it is the static algorithm of the authors' earlier work
//     (NewStaticDetector).
//   - SARAA — adds sampling acceleration: targets shrink to
//     mean + N*sd/sqrt(n) and the sample size shrinks as degradation
//     deepens, confirming a developing degradation faster.
//   - CLTA — central-limit-theorem algorithm: a single block mean of a
//     large sample above the normal-quantile target triggers at once.
//
// Classical change-detection charts (Shewhart, EWMA, CUSUM) are included
// for comparison, and Adaptive wraps any of them to learn the baseline
// (mean, sd) online instead of taking it from an SLA.
//
// # Monitoring
//
// Monitor adapts a Detector for concurrent production use: goroutines
// report observations (or time request handlers through the HTTP
// middleware), and a trigger callback fires — subject to a cooldown —
// when the detector calls for rejuvenation.
//
// The monitor is hardened against telemetry that misbehaves: a Hygiene
// policy rejects (or clamps) non-finite observations before they can
// poison the detector, MaxSilence arms a staleness watchdog that flags
// a stream gone quiet, and a panicking OnTrigger callback is isolated
// instead of unwinding through the probe path.
//
// # Fleet monitoring
//
// Fleet scales the same detection pipeline from one stream to hundreds
// of thousands. Detector parameters are declared once per StreamClass;
// streams are opened under a class and observed in batches:
//
//	f, _ := rejuv.NewFleet(rejuv.FleetConfig{Classes: classes, OnTrigger: onTrigger})
//	f.OpenStream(id, "web")
//	f.ObserveBatch(batch) // []StreamObs, partitioned over lock-striped shards
//
// Internally the engine keeps one detector-kernel state per stream in
// lock-striped shards (the same kernel the single-stream detectors
// run), drains each shard's share of a batch under one
// lock acquisition, and allocates nothing at steady state. All streams
// share one journal (stream-tagged records; ReplayFleetJournal proves
// the decision stream byte-identical against the reference detectors)
// and one metrics registry labeled by class and shard — never by
// stream id, so cardinality stays bounded as the fleet grows. Triggers
// fan into a bounded queue that never blocks ingestion. See DESIGN.md
// §14 for the architecture.
//
// # Actuation
//
// Actuator executes the rejuvenation action itself — the restart RPC
// that can hang, flake or die. Each execution runs up to MaxAttempts
// attempts, every attempt bounded by a per-attempt Timeout, separated
// by capped exponential backoff with deterministic jitter; terminal
// failure escalates through OnGiveUp. Trigger is an OnTrigger-shaped
// asynchronous front end that coalesces triggers arriving while an
// execution is in flight. The full retry timeline is journaled and
// rendered by cmd/rejuvtrace.
//
// # Observability
//
// The package answers not only "should we rejuvenate?" but also "why?".
// The data flows through one pipeline: observations enter a Detector,
// the Monitor turns decisions into triggers, and two optional sinks
// record what happened.
//
//   - A Collector publishes monitor and detector state into a metrics
//     Registry — counters for observations, evaluations, triggers and
//     suppressions, a latency histogram of the observed metric, and
//     gauges for the detector's internals (bucket level and fill,
//     sample size, current target). Registry.Handler serves the whole
//     registry in Prometheus text exposition format (or JSON) from
//     /metrics, so the paper's bucket dynamics are visible on a
//     dashboard in real time.
//   - A TraceLog keeps a bounded ring of the journal's decision records
//     (JournalRecord), one per decision, capturing the inputs behind
//     it: the sample mean, the target it was compared against, and the
//     bucket state that resulted. After a trigger fires,
//     TraceLog.TriggerContext returns the decisions that led up to it
//     — the evidence for the rejuvenation, ready to dump in the
//     journal's JSON-lines encoding.
//   - A JournalWriter (the flight recorder) appends every observation,
//     decision and control action to a durable event journal.
//     ReplayJournal re-runs a fresh detector over the recorded
//     observations and verifies the decision stream byte-identical,
//     and cmd/rejuvtrace renders timelines, per-phase statistics and
//     diffs from the file.
//
// Detectors expose their internals through the Instrumented interface
// (DetectorInternals); custom detectors can implement it to light up
// the same gauges and trace fields.
//
// # Simulation
//
// Simulate runs the paper's e-commerce system model (Section 3): a
// 16-CPU FCFS queue with kernel-overhead and garbage-collection aging
// and a rejuvenation hook, which is how the algorithms are evaluated.
// The cmd/figures tool regenerates every figure of the paper's
// evaluation on top of it. The simulator plugs into the same
// observability pipeline: cmd/rejuvsim -metrics samples the full
// registry on a virtual-time grid and writes JSON-lines series of
// queue length, heap, GC stalls, detector bucket occupancy and
// rejuvenation counts.
//
// The internal/faults package injects telemetry failure modes
// deterministically from a seed (NaN and infinite readings, frozen
// gauges, dropped/duplicated/reordered/stalled observations) plus a
// slow rejuvenation action; cmd/rejuvsim -faults applies a fault spec
// to a simulation run, and the
// conformance suite pins every detector family's behaviour under each
// fault class.
package rejuv
