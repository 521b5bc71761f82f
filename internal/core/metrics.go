package core

import (
	"reflect"
	"sync"

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

// StageMetrics is a StageObserver that records every stage completion
// into a metrics.Registry: a latency histogram and an error counter per
// stage. One instance may observe many concurrent pipeline runs (the
// eval trial runner, a Monitor's strides): recording is lock-free, and
// the stage→histogram map is read-locked only for stages outside the
// predeclared graph.
type StageMetrics struct {
	reg *metrics.Registry

	mu   sync.RWMutex
	hist map[string]*metrics.Histogram
	errs map[string]*metrics.Counter
}

// NewStageMetrics returns an observer recording into r, with histograms
// for every stage of the batch graph pre-created so the common path
// never mutates the map. A nil registry yields a nil observer, which
// callers may attach unconditionally (CombineObservers skips it).
func NewStageMetrics(r *metrics.Registry) *StageMetrics {
	if r == nil {
		return nil
	}
	m := &StageMetrics{
		reg:  r,
		hist: make(map[string]*metrics.Histogram),
		errs: make(map[string]*metrics.Counter),
	}
	for _, name := range StageNames() {
		m.hist[name] = r.Histogram(metricStagePrefix+name+metricStageSecondsSuffix, metrics.DefLatencyBuckets)
		m.errs[name] = r.Counter(metricStagePrefix + name + metricStageErrorsSuffix)
	}
	return m
}

// OnStageStart implements StageObserver.
func (m *StageMetrics) OnStageStart(string) {}

// OnStageEnd implements StageObserver: one histogram observation, plus
// an error-counter increment on failure.
func (m *StageMetrics) OnStageEnd(s StageStats) {
	m.mu.RLock()
	h, ok := m.hist[s.Stage]
	e := m.errs[s.Stage]
	m.mu.RUnlock()
	if !ok {
		h, e = m.addStage(s.Stage)
	}
	h.Observe(s.Duration.Seconds())
	if s.Err != nil {
		e.Inc()
	}
}

// addStage registers a stage name outside the predeclared graph (a
// future custom stage); doubly-checked so racing callers converge on
// one histogram.
func (m *StageMetrics) addStage(stage string) (*metrics.Histogram, *metrics.Counter) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if h, ok := m.hist[stage]; ok {
		return h, m.errs[stage]
	}
	h := m.reg.Histogram(metricStagePrefix+stage+metricStageSecondsSuffix, metrics.DefLatencyBuckets)
	e := m.reg.Counter(metricStagePrefix + stage + metricStageErrorsSuffix)
	m.hist[stage] = h
	m.errs[stage] = e
	return h, e
}

// multiObserver fans stage callbacks out to several observers in order.
type multiObserver []StageObserver

func (m multiObserver) OnStageStart(stage string) {
	for _, o := range m {
		o.OnStageStart(stage)
	}
}

func (m multiObserver) OnStageEnd(s StageStats) {
	for _, o := range m {
		o.OnStageEnd(s)
	}
}

// CollectEvidence implements EvidenceCollector: the fan-out wants
// evidence when any member does, so an explain recorder combined with
// timing or metrics observers still receives it.
func (m multiObserver) CollectEvidence() bool {
	for _, o := range m {
		if wantsEvidence(o) {
			return true
		}
	}
	return false
}

// CombineObservers merges stage observers into one, dropping nils
// (including typed nils like a disabled *StageMetrics or an unset
// *TimingObserver). It returns nil when nothing remains — a valid
// Config.Observer — and the observer itself when only one remains, so
// single-observer pipelines pay no fan-out indirection.
func CombineObservers(obs ...StageObserver) StageObserver {
	var kept multiObserver
	for _, o := range obs {
		if o == nil {
			continue
		}
		if v := reflect.ValueOf(o); v.Kind() == reflect.Pointer && v.IsNil() {
			continue
		}
		kept = append(kept, o)
	}
	switch len(kept) {
	case 0:
		return nil
	case 1:
		return kept[0]
	}
	return kept
}

// monitorMetrics is the Monitor's registry wiring: a stride-latency
// histogram and an updates counter recorded by the worker, plus
// callback gauges over the existing health atomics — reading the same
// counters Health() snapshots, so the quarantine hot path is not
// touched at all.
type monitorMetrics struct {
	strideSeconds *metrics.Histogram
	updates       *metrics.Counter
}

// register wires the monitor's health counters and stride metrics into
// r. Returns a zero monitorMetrics (nil histogram/counter, all no-ops)
// when r is nil.
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
	return monitorMetrics{
		strideSeconds: r.Histogram(metricStrideSeconds, metrics.DefLatencyBuckets),
		updates:       r.Counter(metricUpdatesEmitted),
	}
}
