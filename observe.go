package rejuv

import (
	"rejuv/internal/core"
	"rejuv/internal/metrics"
)

// This file is the observability surface of the package: a re-export of
// the internal/metrics registry and a Collector that publishes monitor
// and detector state through it. See doc.go, "Observability".

// Registry is a dependency-free metrics registry: counters, gauges and
// fixed-bucket histograms with atomic hot paths, rendered in Prometheus
// text exposition format (Registry.WritePrometheus, Registry.Handler)
// or as a JSON snapshot (Registry.WriteJSON, Registry.Snapshot).
type Registry = metrics.Registry

// Label is one name="value" pair attached to a metric series.
type Label = metrics.Label

// MetricCounter is a monotonically increasing count.
type MetricCounter = metrics.Counter

// MetricGauge is a float64 metric that may move in both directions.
type MetricGauge = metrics.Gauge

// MetricHistogram counts observations into fixed buckets with inclusive
// upper bounds.
type MetricHistogram = metrics.Histogram

// NewRegistry returns an empty metrics registry.
func NewRegistry() *Registry { return metrics.NewRegistry() }

// LinearBuckets returns n histogram bounds start, start+width, ...
func LinearBuckets(start, width float64, n int) []float64 {
	return metrics.LinearBuckets(start, width, n)
}

// ExponentialBuckets returns n histogram bounds start, start*factor, ...
func ExponentialBuckets(start, factor float64, n int) []float64 {
	return metrics.ExponentialBuckets(start, factor, n)
}

// DetectorInternals is a point-in-time snapshot of a detector's internal
// state: bucket occupancy, sample progress, current target.
type DetectorInternals = core.Internals

// Instrumented is optionally implemented by detectors that can expose
// their internal state; every detector in this package implements it.
type Instrumented = core.Instrumented

// Collector publishes monitor activity into a Registry: observation and
// trigger counts, an observed-value histogram, cooldown state, and —
// when the detector implements Instrumented — its bucket occupancy,
// sample size and target. Attach one via MonitorConfig.Collector; the
// monitor updates it under its lock, so one collector must not be
// shared between monitors unless their label sets differ.
type Collector struct {
	observations  *metrics.Counter
	evaluations   *metrics.Counter
	triggers      *metrics.Counter
	suppressed    *metrics.Counter
	rejected      *metrics.Counter
	stallsTotal   *metrics.Counter
	triggerPanics *metrics.Counter
	cooldown      *metrics.Gauge
	stalledGauge  *metrics.Gauge
	observed      *metrics.Histogram

	level      *metrics.Gauge
	fill       *metrics.Gauge
	sampleSize *metrics.Gauge
	sampleFill *metrics.Gauge
	target     *metrics.Gauge
	sampleMean *metrics.Gauge
	meanDist   *metrics.Gauge
}

// NewCollector registers the monitor metric family in reg and returns a
// collector for MonitorConfig.Collector. The optional labels are
// attached to every series, so several monitors can share one registry
// (for example Label{Name: "detector", Value: "SRAA"}).
//
// The series, all prefixed rejuv_:
//
//	rejuv_observations_total          observations fed to the detector
//	rejuv_observed_metric             histogram of observed values
//	                                  (seconds when fed by Middleware)
//	rejuv_samples_evaluated_total     completed samples (detector steps)
//	rejuv_triggers_total              triggers delivered to OnTrigger
//	rejuv_triggers_suppressed_total   triggers eaten by the cooldown
//	rejuv_observations_rejected_total non-finite observations intercepted
//	                                  by the hygiene policy
//	rejuv_stalls_total                staleness-watchdog trips
//	rejuv_trigger_panics_total        panics recovered from OnTrigger
//	rejuv_cooldown_active             1 while inside the cooldown window
//	rejuv_stream_stalled              1 while the stream is silent beyond
//	                                  MaxSilence
//	rejuv_detector_bucket_level       current bucket pointer N
//	rejuv_detector_bucket_fill        current ball count d
//	rejuv_detector_sample_size        sample size n currently in effect
//	rejuv_detector_sample_fill        observations toward the next sample
//	rejuv_detector_target             current trigger threshold
//	rejuv_detector_last_sample_mean   most recent completed sample mean
//	rejuv_detector_mean_minus_target  that mean's distance from the
//	                                  target it was compared against
//
// Detector gauges reflect the state after the decision: immediately
// after a trigger they show the freshly reset detector.
func NewCollector(reg *Registry, labels ...Label) *Collector {
	return &Collector{
		observations: reg.Counter("rejuv_observations_total",
			"observations fed to the detector", labels...),
		observed: reg.Histogram("rejuv_observed_metric",
			"observed values of the monitored metric (seconds when fed by Middleware)",
			metrics.DefLatencyBuckets, labels...),
		evaluations: reg.Counter("rejuv_samples_evaluated_total",
			"completed samples, i.e. detector bucket or threshold steps", labels...),
		triggers: reg.Counter("rejuv_triggers_total",
			"rejuvenation triggers delivered to OnTrigger", labels...),
		suppressed: reg.Counter("rejuv_triggers_suppressed_total",
			"triggers suppressed by the cooldown window", labels...),
		rejected: reg.Counter("rejuv_observations_rejected_total",
			"non-finite observations intercepted by the hygiene policy", labels...),
		stallsTotal: reg.Counter("rejuv_stalls_total",
			"staleness-watchdog trips: silences longer than MaxSilence", labels...),
		triggerPanics: reg.Counter("rejuv_trigger_panics_total",
			"panics recovered from the OnTrigger callback", labels...),
		cooldown: reg.Gauge("rejuv_cooldown_active",
			"1 while the monitor is inside its cooldown window", labels...),
		stalledGauge: reg.Gauge("rejuv_stream_stalled",
			"1 while the observation stream has been silent beyond MaxSilence", labels...),
		level: reg.Gauge("rejuv_detector_bucket_level",
			"current bucket pointer N", labels...),
		fill: reg.Gauge("rejuv_detector_bucket_fill",
			"current ball count d in the current bucket", labels...),
		sampleSize: reg.Gauge("rejuv_detector_sample_size",
			"sample size n currently in effect", labels...),
		sampleFill: reg.Gauge("rejuv_detector_sample_fill",
			"observations accumulated toward the next sample", labels...),
		target: reg.Gauge("rejuv_detector_target",
			"threshold the next sample mean is compared against", labels...),
		sampleMean: reg.Gauge("rejuv_detector_last_sample_mean",
			"most recent completed sample mean", labels...),
		meanDist: reg.Gauge("rejuv_detector_mean_minus_target",
			"distance of the last sample mean from the target it was compared against",
			labels...),
	}
}

// Observed returns the collector's observed-metric histogram
// (rejuv_observed_metric) — pass it to FleetzHandler to attach a
// latency quantile digest to /fleetz snapshots.
func (c *Collector) Observed() *MetricHistogram { return c.observed }

// observe publishes one monitor decision. in is the monitor's snapshot
// of the detector's internals after the decision, nil when the detector
// is not Instrumented. Called by Monitor.Observe under the monitor lock.
func (c *Collector) observe(x float64, d Decision, in *DetectorInternals, suppressed, inCooldown bool) {
	c.observations.Inc()
	c.observed.Observe(x)
	if d.Evaluated {
		c.evaluations.Inc()
		c.sampleMean.Set(d.SampleMean)
		c.meanDist.Set(d.SampleMean - d.Target)
	}
	if d.Triggered {
		if suppressed {
			c.suppressed.Inc()
		} else {
			c.triggers.Inc()
		}
	}
	if inCooldown {
		c.cooldown.Set(1)
	} else {
		c.cooldown.Set(0)
	}
	if in != nil {
		c.level.SetInt(in.Level)
		c.fill.SetInt(in.Fill)
		c.sampleSize.SetInt(in.SampleSize)
		c.sampleFill.SetInt(in.SampleFill)
		c.target.Set(in.Target)
	} else if d.Evaluated {
		c.level.SetInt(d.Level)
		c.fill.SetInt(d.Fill)
	}
}
