package core

import (
	"time"

	"phasebeat/internal/metrics"
)

// Metric names the core package registers. Stage histograms follow
// "pipeline.stage.<name>.seconds" (one per stage, observation unit
// seconds) with error counters at "pipeline.stage.<name>.errors";
// Monitor metrics live under "monitor.".
const (
	metricStagePrefix        = "pipeline.stage."
	metricStageSecondsSuffix = ".seconds"
	metricStageErrorsSuffix  = ".errors"

	metricStrideSeconds  = "monitor.stride.seconds"
	metricUpdatesEmitted = "monitor.updates.emitted"
	metricHealthPrefix   = "monitor.health."
)

// monitorMetrics is the Monitor's registry wiring: per-stage latency
// histograms and error counters, a stride-latency histogram and an
// updates counter, all recorded by the worker from each delivered
// stride's record, plus callback gauges over the existing health atomics
// — reading the same counters Health() snapshots, so the quarantine hot
// path is not touched at all.
type monitorMetrics struct {
	stages        map[string]stageMetrics
	strideSeconds *metrics.Histogram
	updates       *metrics.Counter
}

// stageMetrics is one stage's latency histogram and error counter.
type stageMetrics struct {
	seconds *metrics.Histogram
	errors  *metrics.Counter
}

// record accounts one delivered stride: its stages, its latency and the
// update it produced. The stage map is read-only after registration, so
// no lock is needed.
func (mm *monitorMetrics) record(rec *StrideRecord, took time.Duration) {
	for _, s := range rec.Stages {
		sm := mm.stages[s.Stage]
		sm.seconds.Observe(s.Duration.Seconds())
		if s.Err != nil {
			sm.errors.Inc()
		}
	}
	mm.strideSeconds.Observe(took.Seconds())
	mm.updates.Inc()
}

// registerMetrics wires the monitor's health counters and stride metrics
// into r. Returns a zero monitorMetrics when r is nil.
func (m *Monitor) registerMetrics(r *metrics.Registry) monitorMetrics {
	if r == nil {
		return monitorMetrics{}
	}
	h := &m.health
	counters := []struct {
		name string
		load func() uint64
	}{
		{"accepted", h.accepted.Load},
		{"quarantined.malformed", h.malformed.Load},
		{"quarantined.nonfinite", h.nonFinite.Load},
		{"quarantined.nonmonotonic", h.nonMonotonic.Load},
		{"gap_resets", h.gapResets.Load},
		{"packets_dropped", h.dropped.Load},
		{"updates_replaced", h.replaced.Load},
		{"observer_panics", h.observerPanics.Load},
	}
	for _, c := range counters {
		load := c.load
		r.RegisterFunc(metricHealthPrefix+c.name, func() float64 { return float64(load()) })
	}
	names := StageNames()
	stages := make(map[string]stageMetrics, len(names))
	for _, name := range names {
		stages[name] = stageMetrics{
			seconds: r.Histogram(metricStagePrefix+name+metricStageSecondsSuffix, metrics.DefLatencyBuckets),
			errors:  r.Counter(metricStagePrefix + name + metricStageErrorsSuffix),
		}
	}
	return monitorMetrics{
		stages:        stages,
		strideSeconds: r.Histogram(metricStrideSeconds, metrics.DefLatencyBuckets),
		updates:       r.Counter(metricUpdatesEmitted),
	}
}
