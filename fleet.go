package rejuv

import (
	"io"
	"net/http"
	"time"

	"rejuv/internal/fleet"
	"rejuv/internal/health"
	"rejuv/internal/journal"
)

// The fleet engine scales the detection pipeline from one Monitor to
// very many streams at once: lock-striped shards holding one kernel
// state per stream, batched ingestion, one shared journal and one
// shared bounded-cardinality metrics registry. See the internal/fleet package
// documentation and DESIGN §14 for the architecture.

// Fleet is the multi-tenant monitoring engine. Where a Monitor watches
// one observation stream, a Fleet watches hundreds of thousands behind
// one batched call:
//
//	f, err := rejuv.NewFleet(rejuv.FleetConfig{
//		Classes: []rejuv.StreamClass{{
//			Name: "web", Family: rejuv.FamilySRAA,
//			SampleSize: 4, Buckets: 5, Depth: 3,
//			Baseline: rejuv.Baseline{Mean: 0.5, StdDev: 0.1},
//		}},
//		OnTrigger: func(tr rejuv.FleetTrigger) { rejuvenate(tr.Stream) },
//	})
//	f.OpenStream(1001, "web")
//	f.ObserveBatch([]rejuv.StreamObs{{Stream: 1001, Value: 0.47}, ...})
type Fleet = fleet.Engine

// FleetConfig configures a Fleet; see NewFleet.
type FleetConfig = fleet.Config

// StreamClass declares one named detector configuration shared by every
// stream opened under it.
type StreamClass = fleet.ClassConfig

// DetectorFamily selects which of the paper's algorithms a stream class
// runs.
type DetectorFamily = fleet.Family

// Detector families for StreamClass.Family.
const (
	// FamilySRAA is the static rejuvenation algorithm with averaging.
	FamilySRAA = fleet.FamilySRAA
	// FamilySARAA is the sampling-acceleration algorithm.
	FamilySARAA = fleet.FamilySARAA
	// FamilyCLTA is the central-limit-theorem algorithm.
	FamilyCLTA = fleet.FamilyCLTA
)

// StreamID identifies one monitored stream within a Fleet.
type StreamID = fleet.StreamID

// StreamObs is one observation addressed to one fleet stream — the unit
// of batched ingestion.
type StreamObs = fleet.StreamObs

// FleetTrigger is one rejuvenation trigger raised by a fleet stream.
type FleetTrigger = fleet.Trigger

// FleetStats is an aggregate snapshot of fleet counters.
type FleetStats = fleet.Stats

// FleetHealth is one consistent fleet health view, assembled by
// Fleet.HealthSnapshot: the top-K most-aged streams (Space-Saving
// sketch merged across shards), the fleet-wide bucket-level histogram
// with exemplars, per-class detection statistics, trigger-queue state
// and the process's own runtime telemetry. Serve it over HTTP with
// FleetzHandler, or render it with the rejuvtop CLI.
type FleetHealth = health.Snapshot

// StreamHealth is one ranked stream of the fleet's top-K aging view.
type StreamHealth = health.StreamHealth

// FleetzHandler returns the /fleetz endpoint for a fleet: the health
// snapshot as indented JSON, or the human text view with ?format=text.
// latency, when non-nil, attaches a quantile digest of an
// observed-metric histogram (for example the Collector's
// rejuv_observed_metric series) to each served snapshot.
func FleetzHandler(f *Fleet, latency *MetricHistogram) http.Handler {
	return health.NewHandler(health.HandlerConfig{
		Snapshot: f.HealthSnapshot,
		Latency:  latency,
	})
}

// Stream lifecycle journal record kinds written by a Fleet's journal.
// A fleet's observations, decisions and rebaselines use the same
// JournalKindObserve, JournalKindDecision and JournalKindRebaseline
// records a Monitor writes, tagged with the stream id.
const (
	JournalKindStreamOpen  = journal.KindStreamOpen
	JournalKindStreamClose = journal.KindStreamClose
)

// JournalKindRebaseline marks a committed workload-shift rebaseline on
// a Monitor's stream (see NewRebaseDetector) or a fleet stream of a
// shift-enabled class (StreamClass.Shift).
const JournalKindRebaseline = journal.KindRebaseline

// NewFleet validates the configuration and returns a running fleet
// engine. Config.Now defaults to time.Now; deterministic harnesses
// inject a fake clock instead. If OnTrigger is set a dispatcher
// goroutine delivers triggers with panic isolation; otherwise drain
// Fleet.Triggers yourself. Stop the engine with Close.
func NewFleet(cfg FleetConfig) (*Fleet, error) {
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	return fleet.New(cfg)
}

// ReplayFleetJournal re-derives every stream's decisions in a fleet
// journal by feeding the journaled observations through fresh reference
// detectors — one per stream, built by the per-class factory — and
// compares them byte for byte against the journaled decisions. The
// fleet and the reference detectors step the same core kernel, so the
// replay is the external auditor's check of everything around it —
// hygiene, cooldown, shift layering and journaling — and of the
// journal itself: use StreamClass.Detector as the factory to check a
// journal against the classes that produced it.
func ReplayFleetJournal(r io.Reader, factory func(class string) (Detector, error)) (ReplayReport, error) {
	jr, err := journal.NewReader(r)
	if err != nil {
		return ReplayReport{}, err
	}
	return journal.Replay(jr, factory)
}
