package rejuv

import (
	"rejuv/internal/core"
	"rejuv/internal/ecommerce"
)

// The public API re-exports the internal/core types by alias so the
// implementation, its tests, and the experiment harness can live in
// internal packages while users program against this one.

// Baseline is the normal-behaviour specification of the monitored
// metric: its mean and standard deviation under healthy operation,
// from an SLA or learned with Adaptive.
type Baseline = core.Baseline

// Decision is the outcome of feeding one observation to a Detector.
type Decision = core.Decision

// Hygiene is the policy for non-finite observations (NaN, ±Inf)
// arriving at a Monitor. See MonitorConfig.Hygiene.
type Hygiene = core.Hygiene

// Hygiene policies. The zero value rejects, so a Monitor is hardened by
// default.
const (
	// HygieneReject drops non-finite observations before the detector.
	HygieneReject = core.HygieneReject
	// HygieneClamp substitutes the last admitted value for a non-finite
	// one (falling back to rejection before any value was admitted).
	HygieneClamp = core.HygieneClamp
	// HygieneOff passes observations through unexamined (the legacy
	// behaviour; detector state can be poisoned by a single NaN).
	HygieneOff = core.HygieneOff
)

// Detector consumes metric observations one at a time and decides when
// to trigger rejuvenation. Detectors are single-goroutine state
// machines; use Monitor for concurrent observation.
type Detector = core.Detector

// SRAAConfig parameterizes the static rejuvenation algorithm with
// averaging.
type SRAAConfig = core.SRAAConfig

// SARAAConfig parameterizes the sampling-acceleration rejuvenation
// algorithm with averaging.
type SARAAConfig = core.SARAAConfig

// CLTAConfig parameterizes the central-limit-theorem algorithm.
type CLTAConfig = core.CLTAConfig

// SRAA is the static rejuvenation algorithm with averaging (paper Fig. 6).
type SRAA = core.SRAA

// SARAA is the sampling-acceleration algorithm (paper Fig. 7).
type SARAA = core.SARAA

// CLTA is the central-limit-theorem algorithm (paper Fig. 8).
type CLTA = core.CLTA

// Shewhart is the classical individuals control chart (comparator).
type Shewhart = core.Shewhart

// EWMA is the exponentially weighted moving-average chart (comparator).
type EWMA = core.EWMA

// CUSUM is the one-sided cumulative-sum chart (comparator).
type CUSUM = core.CUSUM

// Adaptive learns the baseline from a warmup window, then delegates to a
// detector built from it.
type Adaptive = core.Adaptive

// NewSRAA returns an SRAA detector.
func NewSRAA(cfg SRAAConfig) (*SRAA, error) { return core.NewSRAA(cfg) }

// NewSARAA returns a SARAA detector.
func NewSARAA(cfg SARAAConfig) (*SARAA, error) { return core.NewSARAA(cfg) }

// NewCLTA returns a CLTA detector.
func NewCLTA(cfg CLTAConfig) (*CLTA, error) { return core.NewCLTA(cfg) }

// NewStaticDetector returns the per-observation static algorithm of the
// authors' earlier work: SRAA with sample size one.
func NewStaticDetector(buckets, depth int, baseline Baseline) (*SRAA, error) {
	return core.NewStatic(buckets, depth, baseline)
}

// NewShewhart returns an individuals chart triggering above
// mean + limit*sd.
func NewShewhart(limit float64, baseline Baseline) (*Shewhart, error) {
	return core.NewShewhart(limit, baseline)
}

// NewEWMA returns an EWMA chart with the given smoothing weight and
// control-limit multiplier.
func NewEWMA(weight, limit float64, baseline Baseline) (*EWMA, error) {
	return core.NewEWMA(weight, limit, baseline)
}

// NewCUSUM returns an upper CUSUM chart with the given allowance (slack)
// and decision interval (threshold), both in standard deviations.
func NewCUSUM(slack, threshold float64, baseline Baseline) (*CUSUM, error) {
	return core.NewCUSUM(slack, threshold, baseline)
}

// NewAdaptive returns a detector that learns the baseline from the first
// warmup observations and then delegates to the detector built by the
// factory.
func NewAdaptive(warmup int, build func(Baseline) (Detector, error)) (*Adaptive, error) {
	return core.NewAdaptive(warmup, build)
}

// ShiftConfig tunes the workload-shift layer of a Rebase detector: the
// EWMA baseline re-estimation, the change-point statistic and the
// shift-versus-aging decision rule. The zero value selects the
// documented defaults.
type ShiftConfig = core.ShiftConfig

// Rebase layers online baseline re-estimation under any detector
// family: workload shifts restart the wrapped detector in place at the
// re-estimated µ and σ (bucket targets and sample sizes recomputed from
// them) while software aging passes through and triggers as usual.
type Rebase = core.Rebase

// Rebaseliner is implemented by detectors that re-estimate their
// baseline online (Rebase); MonitorStats.Rebaselines counts their
// committed rebaselines and journals record them as rebaseline events.
type Rebaseliner = core.Rebaseliner

// NewRebaseDetector wraps the detector family built by build with the
// workload-shift layer, starting from the given baseline. The factory
// is invoked once, at that baseline, and must return one of this
// package's detectors (SRAA, SARAA, CLTA, Static, Shewhart, EWMA, CUSUM
// or Adaptive); a committed rebaseline restarts it in place.
func NewRebaseDetector(cfg ShiftConfig, base Baseline, build func(Baseline) (Detector, error)) (*Rebase, error) {
	return core.NewRebase(cfg, base, build)
}

// SimulationConfig parameterizes the paper's e-commerce system model
// (Section 3). The zero value of every field except ArrivalRate takes
// the paper's value (16 CPUs, mu = 0.2/s, 3 GB heap, 10 MB/transaction,
// 100 MB GC threshold, 60 s GC pause, overhead threshold 50 threads,
// factor 2.0, 100,000 transactions).
type SimulationConfig = ecommerce.Config

// SimulationResult aggregates one simulation replication.
type SimulationResult = ecommerce.Result

// ServiceDistribution selects the simulated CPU processing-time
// distribution (exponential by default, per the paper; Erlang-2 and
// hyperexponential variants exist for sensitivity studies).
type ServiceDistribution = ecommerce.ServiceDistribution

// Service-time distributions for SimulationConfig.ServiceDistribution.
const (
	ServiceExponential = ecommerce.ServiceExponential
	ServiceErlang2     = ecommerce.ServiceErlang2
	ServiceHyper2      = ecommerce.ServiceHyper2
)

// Simulate runs one replication of the e-commerce model under the given
// detector; a nil detector disables rejuvenation.
func Simulate(cfg SimulationConfig, detector Detector) (SimulationResult, error) {
	m, err := ecommerce.New(cfg, detector)
	if err != nil {
		return SimulationResult{}, err
	}
	return m.Run()
}

// NewSimulation returns an un-run simulation model so callers can attach
// observation hooks (Model.OnComplete, Model.OnRejuvenate) before Run.
func NewSimulation(cfg SimulationConfig, detector Detector) (*ecommerce.Model, error) {
	return ecommerce.New(cfg, detector)
}

// ClusterConfig parameterizes a multi-host simulation: several copies of
// the e-commerce system behind a router, with per-host detectors and at
// most one host rejuvenating at a time.
type ClusterConfig = ecommerce.ClusterConfig

// ClusterResult aggregates a cluster simulation run.
type ClusterResult = ecommerce.ClusterResult

// Routing selects the cluster router policy.
type Routing = ecommerce.Routing

// Cluster routing policies.
const (
	RouteLeastActive = ecommerce.RouteLeastActive
	RouteRoundRobin  = ecommerce.RouteRoundRobin
)

// SimulateCluster runs a cluster simulation; the factory builds one
// detector per host (nil disables rejuvenation everywhere).
func SimulateCluster(cfg ClusterConfig, factory func(host int) (Detector, error)) (ClusterResult, error) {
	c, err := ecommerce.NewCluster(cfg, factory)
	if err != nil {
		return ClusterResult{}, err
	}
	return c.Run()
}

// NewClusterSimulation returns an un-run cluster model so callers can
// attach the OnRejuvenate hook before Run.
func NewClusterSimulation(cfg ClusterConfig, factory func(host int) (Detector, error)) (*ecommerce.Cluster, error) {
	return ecommerce.NewCluster(cfg, factory)
}
