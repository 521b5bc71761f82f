// Package metrics is the pipeline's observability layer: counters,
// gauges and fixed-bucket histograms with atomic, lock-free hot paths, a
// named registry, and an expvar-style JSON snapshot served over HTTP.
//
// The package is built around two guarantees:
//
//   - Zero overhead when disabled. Every mutating method is nil-safe
//     ((*Counter)(nil).Add(1) is a no-op, likewise Gauge, Histogram and
//     Registry), so instrumented code holds plain metric pointers and
//     never branches on a "metrics enabled" flag of its own: a nil
//     pointer IS the disabled state, and the disabled path costs one
//     predictable nil check.
//   - Lock-free recording. Observe/Add/Set touch only atomics; no
//     mutex is ever taken on a recording path. The registry's mutex
//     guards registration and snapshotting only.
package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
)

// Var is a readable metric that can report its current value for a
// registry snapshot. The returned value must be JSON-marshalable.
type Var interface {
	MetricValue() any
}

// Counter is a monotonically increasing uint64. The zero value is ready
// to use; a nil *Counter discards all updates.
type Counter struct {
	v atomic.Uint64
}

// NewCounter returns a fresh unregistered counter.
func NewCounter() *Counter { return &Counter{} }

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add increases the counter by n. No-op on a nil receiver.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (zero on a nil receiver).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// MetricValue implements Var.
func (c *Counter) MetricValue() any { return c.Value() }

// Gauge is a float64 that can move in both directions. The zero value
// is ready to use; a nil *Gauge discards all updates.
type Gauge struct {
	bits atomic.Uint64
}

// NewGauge returns a fresh unregistered gauge.
func NewGauge() *Gauge { return &Gauge{} }

// Set stores v. No-op on a nil receiver.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add moves the gauge by delta using a CAS loop (lock-free, no mutex).
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		cur := math.Float64frombits(old)
		if g.bits.CompareAndSwap(old, math.Float64bits(cur+delta)) {
			return
		}
	}
}

// Value returns the current value (zero on a nil receiver).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// MetricValue implements Var.
func (g *Gauge) MetricValue() any { return g.Value() }

// Func is a callback gauge: its value is computed at snapshot time, so
// instrumenting an existing atomic (the Monitor's health counters, a
// queue length) costs nothing on the hot path at all.
type Func func() float64

// MetricValue implements Var.
func (f Func) MetricValue() any { return f() }

// DefLatencyBuckets are the default histogram bounds for operation
// latencies in seconds: 1 µs to 10 s, roughly logarithmic. The
// per-packet quarantine path sits in the lowest buckets, a full batch
// pipeline run in the highest.
var DefLatencyBuckets = []float64{
	1e-6, 2.5e-6, 5e-6,
	1e-5, 2.5e-5, 5e-5,
	1e-4, 2.5e-4, 5e-4,
	1e-3, 2.5e-3, 5e-3,
	1e-2, 2.5e-2, 5e-2,
	1e-1, 2.5e-1, 5e-1,
	1, 2.5, 5, 10,
}

// LatencyBounds is the shared duration-histogram preset: every
// latency-shaped histogram in the tree (stride, fleet spans, store
// appends, SLO tracking) uses these bounds so their quantiles and
// Prometheus bucket series line up for cross-metric comparison. It is
// the same 1µs–10s log-ish ladder as DefLatencyBuckets.
var LatencyBounds = DefLatencyBuckets

// Histogram counts observations into fixed buckets. Bounds are upper
// bounds (an observation v lands in the first bucket with v <= bound;
// larger values land in the implicit +Inf overflow bucket). Recording is
// lock-free: one atomic add into the bucket, one into the count, and a
// CAS loop on the sum. A nil *Histogram discards observations.
type Histogram struct {
	bounds  []float64
	counts  []atomic.Uint64 // len(bounds)+1; last is the +Inf bucket
	count   atomic.Uint64
	sumBits atomic.Uint64
}

// NewHistogram builds a histogram over the given ascending upper
// bounds. The slice is copied. Panics if bounds is empty or unsorted —
// bucket layout is a programming decision, not input data.
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		panic("metrics: histogram needs at least one bucket bound")
	}
	if !sort.Float64sAreSorted(bounds) {
		panic("metrics: histogram bounds must ascend")
	}
	h := &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
	return h
}

// Observe records one value. No-op on a nil receiver.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// First bucket whose upper bound is >= v; len(bounds) = overflow.
	idx := sort.SearchFloat64s(h.bounds, v)
	h.counts[idx].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		sum := math.Float64frombits(old)
		if h.sumBits.CompareAndSwap(old, math.Float64bits(sum+v)) {
			return
		}
	}
}

// Count returns the number of observations (zero on a nil receiver).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the running total of observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Bucket is one histogram bucket in a snapshot: the count of
// observations at or below UpperBound (and above the previous bound).
// The overflow bucket has UpperBound +Inf, serialized as "+Inf".
type Bucket struct {
	UpperBound float64 `json:"le"`
	N          uint64  `json:"n"`
}

// MarshalJSON renders the +Inf overflow bound as the string "+Inf"
// (JSON has no infinity literal).
func (b Bucket) MarshalJSON() ([]byte, error) {
	if math.IsInf(b.UpperBound, 1) {
		return json.Marshal(struct {
			UpperBound string `json:"le"`
			N          uint64 `json:"n"`
		}{"+Inf", b.N})
	}
	type plain Bucket
	return json.Marshal(plain(b))
}

// HistogramSnapshot is a histogram's point-in-time value as exposed in
// registry snapshots. Empty buckets are omitted. P50/P95/P99 are
// bucket-interpolated quantile estimates (see quantile); zero when the
// histogram is empty.
type HistogramSnapshot struct {
	Count   uint64   `json:"count"`
	Sum     float64  `json:"sum"`
	P50     float64  `json:"p50,omitempty"`
	P95     float64  `json:"p95,omitempty"`
	P99     float64  `json:"p99,omitempty"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Snapshot returns the histogram's current state. Buckets with zero
// observations are omitted to keep snapshots compact.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	counts := make([]uint64, len(h.counts))
	var total uint64
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
		total += counts[i]
	}
	s := HistogramSnapshot{Count: h.count.Load(), Sum: h.Sum()}
	s.P50 = quantile(h.bounds, counts, total, 0.50)
	s.P95 = quantile(h.bounds, counts, total, 0.95)
	s.P99 = quantile(h.bounds, counts, total, 0.99)
	for i, n := range counts {
		if n == 0 {
			continue
		}
		bound := math.Inf(1)
		if i < len(h.bounds) {
			bound = h.bounds[i]
		}
		s.Buckets = append(s.Buckets, Bucket{UpperBound: bound, N: n})
	}
	return s
}

// quantile interpolates the q-quantile (0 < q < 1) from a fixed-bucket
// count vector by locating the bucket containing the target rank and
// interpolating linearly inside it — the same estimate Prometheus's
// histogram_quantile computes from the bucket series. Each bucket's
// observations are assumed uniform between its lower and upper bound
// (the first bucket's lower bound is 0 — these histograms hold
// non-negative durations); the +Inf overflow bucket clamps to the
// highest finite bound. Returns 0 for an empty count vector or an
// out-of-range q.
func quantile(bounds []float64, counts []uint64, total uint64, q float64) float64 {
	if total == 0 || q <= 0 || q >= 1 {
		return 0
	}
	rank := q * float64(total)
	var seen float64
	for i, n := range counts {
		if n == 0 {
			continue
		}
		next := seen + float64(n)
		if rank > next {
			seen = next
			continue
		}
		if i >= len(bounds) {
			// Overflow bucket: no upper bound to interpolate toward;
			// clamp to the highest finite bound.
			return bounds[len(bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = bounds[i-1]
		}
		return lo + (bounds[i]-lo)*((rank-seen)/float64(n))
	}
	return bounds[len(bounds)-1]
}

// MetricValue implements Var.
func (h *Histogram) MetricValue() any { return h.Snapshot() }

// Registry is a named collection of metrics. Get-or-create accessors
// (Counter, Gauge, Histogram) make wiring idempotent: two subsystems
// asking for the same name share one metric. A nil *Registry is the
// disabled state — every accessor returns nil, which the metric types'
// nil-safe methods turn into no-ops all the way down.
type Registry struct {
	mu   sync.RWMutex
	vars map[string]Var
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{vars: make(map[string]Var)}
}

// Register binds name to an existing metric, replacing any previous
// binding (last registration wins, so re-wiring in tests is painless).
// No-op on a nil receiver.
func (r *Registry) Register(name string, v Var) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.vars[name] = v
	r.mu.Unlock()
}

// RegisterFunc binds name to a callback gauge evaluated at snapshot
// time.
func (r *Registry) RegisterFunc(name string, fn func() float64) {
	r.Register(name, Func(fn))
}

// Counter returns the counter registered under name, creating it if
// absent. Returns nil (a valid no-op counter) on a nil registry. Panics
// if name is already bound to a different metric type.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if v, ok := r.vars[name]; ok {
		c, ok := v.(*Counter)
		if !ok {
			panic(fmt.Sprintf("metrics: %q is a %T, not a counter", name, v))
		}
		return c
	}
	c := NewCounter()
	r.vars[name] = c
	return c
}

// Gauge returns the gauge registered under name, creating it if absent.
// Returns nil on a nil registry; panics on a type conflict.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if v, ok := r.vars[name]; ok {
		g, ok := v.(*Gauge)
		if !ok {
			panic(fmt.Sprintf("metrics: %q is a %T, not a gauge", name, v))
		}
		return g
	}
	g := NewGauge()
	r.vars[name] = g
	return g
}

// Histogram returns the histogram registered under name, creating it
// with the given bounds if absent (an existing histogram keeps its
// original bounds). Returns nil on a nil registry; panics on a type
// conflict.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if v, ok := r.vars[name]; ok {
		h, ok := v.(*Histogram)
		if !ok {
			panic(fmt.Sprintf("metrics: %q is a %T, not a histogram", name, v))
		}
		return h
	}
	h := NewHistogram(bounds)
	r.vars[name] = h
	return h
}

// Snapshot returns every registered metric's current value keyed by
// name. The map is freshly allocated; Func metrics are evaluated
// outside the registry lock so a callback may itself read the registry.
func (r *Registry) Snapshot() map[string]any {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	vars := make(map[string]Var, len(r.vars))
	for name, v := range r.vars {
		vars[name] = v
	}
	r.mu.RUnlock()
	out := make(map[string]any, len(vars))
	for name, v := range vars {
		out[name] = v.MetricValue()
	}
	return out
}

// WriteJSON writes the snapshot as a single JSON object with keys in
// sorted order — the expvar idiom, stable across calls for diffing.
func (r *Registry) WriteJSON(w io.Writer) error {
	snap := r.Snapshot()
	names := make([]string, 0, len(snap))
	for name := range snap {
		names = append(names, name)
	}
	sort.Strings(names)
	if _, err := io.WriteString(w, "{"); err != nil {
		return err
	}
	for i, name := range names {
		if i > 0 {
			if _, err := io.WriteString(w, ",\n"); err != nil {
				return err
			}
		} else if _, err := io.WriteString(w, "\n"); err != nil {
			return err
		}
		key, err := json.Marshal(name)
		if err != nil {
			return err
		}
		val, err := json.Marshal(snap[name])
		if err != nil {
			return fmt.Errorf("metrics: marshal %q: %w", name, err)
		}
		if _, err := fmt.Fprintf(w, "%s: %s", key, val); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "\n}\n")
	return err
}

// ServeHTTP implements http.Handler, serving the JSON snapshot — mount
// the registry directly at /debug/metrics.
func (r *Registry) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	if err := r.WriteJSON(w); err != nil {
		// Headers are out; all we can do is drop the connection early.
		return
	}
}
