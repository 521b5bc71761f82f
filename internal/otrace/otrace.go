// Package otrace is the end-to-end latency observability layer: it
// follows one CSI packet from the client's send through the fleet frame
// boundary, the shard mailbox, the session Monitor's ingest queue, the
// stride computation and the delivery pump, to the subscriber's long-poll
// pickup — and answers, per update, "how old was the data behind this
// estimate, and where did that time go?".
//
// The package follows the same two contracts as internal/metrics
// (DESIGN §9):
//
//   - Zero overhead when disabled. A nil *Tracer is the disabled state:
//     Start returns a zero Ctx, a zero Ctx is "not traced", and every
//     instrumented site gates its clock reads on Ctx.Live() — a monitor
//     without a tracer reads no clock and allocates nothing.
//   - Dependency-free. Only the standard library and internal/metrics
//     (itself stdlib-only) are imported; the fleet, core and store layers
//     import otrace, never the other way around.
//
// A packet's journey is recorded as a chain of timestamps stamped into a
// small Ctx value that rides the existing channel handoffs (the fleet
// ingest mailbox, the Monitor ingest queue, the Update). When the update
// it produced is published, the tracer turns the chain into contiguous
// segments:
//
//	frame    Recv → MailboxEnq   frame decode + routing
//	mailbox  MailboxEnq → QueueEnq   shard mailbox dwell
//	queue    QueueEnq → QueueDeq    Monitor ingest-queue dwell
//	compute  QueueDeq → ComputeEnd  quarantine + stride computation
//	deliver  ComputeEnd → publish   update channel + drain pump
//
// The segments telescope: their sum is exactly the publish−Recv total,
// so a decomposition always accounts for all of the measured latency.
// Sampled spans (head sampling 1-in-N, plus every span slower than a
// threshold) are kept in a bounded ring served at /debug/spans; every
// update — sampled or not — feeds the latency histograms and the SLO
// burn-rate tracker (slo.go).
//
// Clock handling: all server-side timestamps come from Now(), which is
// anchored to one wall-clock reading at process start and advances on
// the monotonic clock — segment arithmetic is immune to wall-clock
// steps. The client-send timestamp in an ingest frame is the peer's wall
// clock; the frame→client skew makes it advisory only, so it is reported
// on the span but never folded into a segment.
package otrace

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"phasebeat/internal/metrics"
)

// SpansSchema versions the /debug/spans JSON layout.
const SpansSchema = "phasebeat-spans/v1"

// base anchors Now(): one wall reading at init, monotonic from there.
var base = time.Now()

// Now returns a monotonic timestamp in nanoseconds, wall-anchored at
// process start (so values are comparable to Unix nanos for display but
// differences are monotonic-clock exact). It is never zero.
func Now() int64 { return base.UnixNano() + int64(time.Since(base)) }

// WallTime converts a Now()-style timestamp back to wall clock.
func WallTime(nanos int64) time.Time { return time.Unix(0, nanos) }

// Stage is one pipeline stage's contribution to a span's compute
// segment, captured from the existing core.StageObserver timings.
type Stage struct {
	Name  string `json:"name"`
	Nanos int64  `json:"nanos"`
}

// Ctx is the per-packet trace context threaded through the ingest path
// by value. The zero Ctx means "not traced" and every consumer must
// treat it as such (Live reports it); all timestamps are Now() values.
type Ctx struct {
	// ID numbers traced packets from 1 per Tracer.
	ID uint64
	// Sampled marks a head-sampled packet whose span is retained even
	// when fast.
	Sampled bool
	// ClientSend is the peer's wall-clock send timestamp in Unix nanos
	// (0 when the peer did not stamp one — the pre-rev protocol).
	ClientSend int64
	// Recv is stamped at the fleet frame boundary, before frame decode.
	Recv int64
	// MailboxEnq is stamped just before the shard mailbox handoff.
	MailboxEnq int64
	// QueueEnq is stamped just before the Monitor ingest-queue handoff.
	QueueEnq int64
	// QueueDeq is stamped when the Monitor worker dequeues the packet.
	QueueDeq int64
	// ComputeEnd is stamped after the stride that this packet completed.
	ComputeEnd int64
	// Stages carries the stride's per-stage timings (nil until the
	// compute segment finishes, and only when a tracer is wired).
	Stages []Stage
}

// Live reports whether the packet is being traced at all.
func (c *Ctx) Live() bool { return c != nil && c.Recv != 0 }

// Segment is one named, contiguous slice of a span's total latency.
type Segment struct {
	Name  string `json:"name"`
	Nanos int64  `json:"nanos"`
}

// Span segment names, in path order.
const (
	SegFrame   = "frame"
	SegMailbox = "mailbox"
	SegQueue   = "queue"
	SegCompute = "compute"
	SegDeliver = "deliver"
)

// SpanRecord is one retained end-to-end span: the ingest→update journey
// of the packet that completed a stride, decomposed into segments that
// sum exactly to TotalNanos. PickupNanos and StoreNanos are attached
// after the fact (long-poll pickup dwell, archive append duration) and
// sit outside the total. Access a SpanRecord through the Tracer, which
// serializes mutation against /debug/spans reads.
type SpanRecord struct {
	ID  uint64 `json:"id"`
	Key string `json:"key"`
	// Seq is the session's delivery sequence number for the update.
	Seq uint64 `json:"seq"`
	// StartNanos is the Recv timestamp; Start is its wall form.
	StartNanos int64  `json:"start_nanos"`
	Start      string `json:"start"`
	// TotalNanos is publish − Recv: the ingest→update latency the SLO
	// tracks. Segments sum to it exactly.
	TotalNanos int64     `json:"total_nanos"`
	Segments   []Segment `json:"segments"`
	// Stages decomposes the compute segment by pipeline stage.
	Stages []Stage `json:"stages,omitempty"`
	// ClientSendNanos is the advisory peer wall-clock send time (0 when
	// absent); cross-host skew makes it unusable for segment math.
	ClientSendNanos int64 `json:"client_send_nanos,omitempty"`
	// Slow marks a span retained because it crossed SlowThreshold
	// (rather than, or in addition to, head sampling).
	Slow bool `json:"slow,omitempty"`
	// Breach marks a span whose total exceeded the SLO target.
	Breach bool `json:"breach,omitempty"`
	// PickupNanos is the publish→Session.Wait-pickup dwell of the first
	// subscriber to see this update (0 until picked up).
	PickupNanos int64 `json:"pickup_nanos,omitempty"`
	// StoreNanos is the trace-store append duration for the update.
	StoreNanos int64 `json:"store_nanos,omitempty"`
}

// Config configures a Tracer. The zero value enables tracing with the
// documented defaults and no SLO (Observe still feeds histograms).
type Config struct {
	// SampleEvery is the head-sampling period: one in every N traced
	// packets is marked Sampled and its span retained regardless of
	// speed. 0 selects 16; negative disables head sampling (slow spans
	// are still retained).
	SampleEvery int
	// SlowThreshold retains every span at least this slow, regardless of
	// sampling. 0 selects 250ms; negative disables slow retention.
	SlowThreshold time.Duration
	// RingCapacity bounds the retained-span ring. 0 selects 256.
	RingCapacity int
	// SLO, when non-nil, enables ingest→update latency SLO tracking with
	// multi-window burn rates (see SLOConfig).
	SLO *SLOConfig
	// Metrics, when non-nil, receives the span segment histograms and
	// the slo.* gauges.
	Metrics *metrics.Registry
}

// Tracer owns sampling, the retained-span ring, the latency metrics,
// and the SLO tracker. All methods are safe for concurrent use and
// nil-safe (a nil *Tracer is the disabled state).
type Tracer struct {
	cfg Config
	ids atomic.Uint64

	observed atomic.Uint64 // spans finished (every update with a live Ctx)
	retained atomic.Uint64 // spans kept in the ring

	mu   sync.Mutex
	ring []*SpanRecord
	head int
	n    int

	slo *sloTracker

	total    *metrics.Histogram
	pickup   *metrics.Histogram
	segments map[string]*metrics.Histogram
}

// New validates cfg, applies defaults, and wires the metrics.
func New(cfg Config) (*Tracer, error) {
	if cfg.SampleEvery == 0 {
		cfg.SampleEvery = 16
	}
	if cfg.SlowThreshold == 0 {
		cfg.SlowThreshold = 250 * time.Millisecond
	}
	if cfg.RingCapacity == 0 {
		cfg.RingCapacity = 256
	}
	if cfg.RingCapacity < 1 {
		return nil, fmt.Errorf("otrace: ring capacity %d < 1", cfg.RingCapacity)
	}
	t := &Tracer{cfg: cfg, ring: make([]*SpanRecord, cfg.RingCapacity)}
	if cfg.SLO != nil {
		slo, err := newSLOTracker(*cfg.SLO)
		if err != nil {
			return nil, err
		}
		t.slo = slo
	}
	t.register(cfg.Metrics)
	return t, nil
}

// metricsPrefix prefixes every metric the tracer registers: the fleet is
// the tracer's only host.
const metricsPrefix = "fleet"

// register wires the histograms and gauges (nil registry: the nil-safe
// metric types make every Observe free).
func (t *Tracer) register(reg *metrics.Registry) {
	const p = metricsPrefix
	t.segments = make(map[string]*metrics.Histogram, 5)
	for _, name := range []string{SegFrame, SegMailbox, SegQueue, SegCompute, SegDeliver} {
		t.segments[name] = reg.Histogram(p+".span."+name+".seconds", metrics.LatencyBounds)
	}
	t.total = reg.Histogram(p+".span.total.seconds", metrics.LatencyBounds)
	t.pickup = reg.Histogram(p+".span.pickup.seconds", metrics.LatencyBounds)
	if reg == nil {
		return
	}
	reg.RegisterFunc(p+".spans.observed", func() float64 { return float64(t.observed.Load()) })
	reg.RegisterFunc(p+".spans.retained", func() float64 { return float64(t.retained.Load()) })
	if t.slo != nil {
		t.slo.register(reg, p)
	}
}

// Enabled reports whether the tracer is live. The nil receiver is the
// disabled state.
func (t *Tracer) Enabled() bool { return t != nil }

// Start opens a trace context at Now() — the in-process ingest path's
// frame boundary. Returns the zero Ctx (not traced) on a nil tracer.
func (t *Tracer) Start(clientSend int64) Ctx {
	if t == nil {
		return Ctx{}
	}
	return t.StartAt(Now(), clientSend)
}

// StartAt opens a trace context with an explicit receive timestamp —
// the network server stamps before frame decode so the frame segment
// covers the decode work.
func (t *Tracer) StartAt(recv, clientSend int64) Ctx {
	if t == nil {
		return Ctx{}
	}
	id := t.ids.Add(1)
	return Ctx{
		ID:         id,
		Sampled:    t.cfg.SampleEvery > 0 && id%uint64(t.cfg.SampleEvery) == 0,
		ClientSend: clientSend,
		Recv:       recv,
	}
}

// FinishUpdate closes the span for the packet that produced a published
// update: it decomposes the timestamp chain into segments, feeds the
// latency histograms and the SLO tracker, and — when the span is head-
// sampled, slower than the threshold, or the one that fired the SLO
// burn — retains it in the ring. The returned record is non-nil only
// when retained; mutate it only through MarkPickup/MarkStore.
func (t *Tracer) FinishUpdate(key string, seq uint64, c *Ctx, publish int64) *SpanRecord {
	if t == nil || !c.Live() {
		return nil
	}
	t.observed.Add(1)
	total := publish - c.Recv
	// A stack array: the segments reach the heap only when the span is
	// retained, so the common unsampled path allocates nothing.
	segs := [...]Segment{
		{SegFrame, c.MailboxEnq - c.Recv},
		{SegMailbox, c.QueueEnq - c.MailboxEnq},
		{SegQueue, c.QueueDeq - c.QueueEnq},
		{SegCompute, c.ComputeEnd - c.QueueDeq},
		{SegDeliver, publish - c.ComputeEnd},
	}
	for _, s := range segs {
		t.segments[s.Name].Observe(float64(s.Nanos) / 1e9)
	}
	t.total.Observe(float64(total) / 1e9)
	breach := false
	var fire *BurnReport
	if t.slo != nil {
		breach, fire = t.slo.observe(key, publish, time.Duration(total))
	}
	slow := t.cfg.SlowThreshold > 0 && time.Duration(total) >= t.cfg.SlowThreshold
	var rec *SpanRecord
	// fire != nil forces retention: the burn dump must contain the span
	// that tipped the burn rate over even when it is neither head-sampled
	// nor past the slow threshold (a tight SLO breaches long before the
	// 250ms default).
	if c.Sampled || slow || fire != nil {
		rec = &SpanRecord{
			ID:              c.ID,
			Key:             key,
			Seq:             seq,
			StartNanos:      c.Recv,
			Start:           WallTime(c.Recv).UTC().Format(time.RFC3339Nano),
			TotalNanos:      total,
			Segments:        append([]Segment(nil), segs[:]...),
			Stages:          c.Stages,
			ClientSendNanos: c.ClientSend,
			Slow:            slow,
			Breach:          breach,
		}
		t.retained.Add(1)
		t.mu.Lock()
		if t.n < len(t.ring) {
			t.ring[(t.head+t.n)%len(t.ring)] = rec
			t.n++
		} else {
			t.ring[t.head] = rec
			t.head = (t.head + 1) % len(t.ring)
		}
		t.mu.Unlock()
	}
	// OnBurn runs after retention so a flight dump taken from the hook
	// sees the span that tipped the burn rate over.
	if fire != nil {
		t.slo.cfg.OnBurn(*fire)
	}
	return rec
}

// MarkPickup attaches the publish→pickup dwell of the first subscriber
// to see the span's update. Later pickups of the same update are
// ignored — the first wait is the freshness that matters.
func (t *Tracer) MarkPickup(rec *SpanRecord, now int64) {
	if t == nil || rec == nil {
		return
	}
	t.mu.Lock()
	if rec.PickupNanos == 0 {
		rec.PickupNanos = now - (rec.StartNanos + rec.TotalNanos)
		t.mu.Unlock()
		t.pickup.Observe(float64(rec.PickupNanos) / 1e9)
		return
	}
	t.mu.Unlock()
}

// MarkStore attaches the trace-store append duration for the span's
// update.
func (t *Tracer) MarkStore(rec *SpanRecord, d time.Duration) {
	if t == nil || rec == nil {
		return
	}
	t.mu.Lock()
	rec.StoreNanos = d.Nanoseconds()
	t.mu.Unlock()
}

// Spans returns a deep copy of the retained ring, oldest first. Safe to
// marshal or mutate without racing the tracer.
func (t *Tracer) Spans() []SpanRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]SpanRecord, 0, t.n)
	for i := 0; i < t.n; i++ {
		out = append(out, *t.ring[(t.head+i)%len(t.ring)])
	}
	return out
}

// Observed returns the number of spans finished (every update produced
// from a traced packet, retained or not).
func (t *Tracer) Observed() uint64 {
	if t == nil {
		return 0
	}
	return t.observed.Load()
}

// Retained returns the number of spans kept in the ring so far
// (cumulative; the ring itself holds at most RingCapacity).
func (t *Tracer) Retained() uint64 {
	if t == nil {
		return 0
	}
	return t.retained.Load()
}

// SLOReport returns the current burn-rate summary; ok is false when no
// SLO is configured.
func (t *Tracer) SLOReport() (BurnReport, bool) {
	if t == nil || t.slo == nil {
		return BurnReport{}, false
	}
	return t.slo.report(Now()), true
}

// spansPage is the /debug/spans JSON document.
type spansPage struct {
	Schema   string       `json:"schema"`
	Observed uint64       `json:"spans_observed"`
	Retained uint64       `json:"spans_retained"`
	SLO      *BurnReport  `json:"slo,omitempty"`
	Sessions []TenantSLO  `json:"sessions,omitempty"`
	Spans    []SpanRecord `json:"spans"`
}

// ServeHTTP serves the retained spans and the SLO summary as JSON —
// mount the tracer at /debug/spans.
func (t *Tracer) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	if t == nil {
		http.Error(w, "span tracing disabled", http.StatusNotFound)
		return
	}
	page := spansPage{
		Schema:   SpansSchema,
		Observed: t.observed.Load(),
		Retained: t.retained.Load(),
		Spans:    t.Spans(),
	}
	if rep, ok := t.SLOReport(); ok {
		page.SLO = &rep
		page.Sessions = t.slo.tenantTable()
	}
	// Newest-first reads better when eyeballing an incident.
	sort.SliceStable(page.Spans, func(i, j int) bool {
		return page.Spans[i].StartNanos > page.Spans[j].StartNanos
	})
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(page)
}
