package otrace

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http/httptest"
	"testing"
	"time"

	"phasebeat/internal/metrics"
)

// finish builds a well-formed timestamp chain offset from start and
// closes the span: frame 1ms, mailbox 2ms, queue 3ms, compute 4ms,
// deliver 5ms — total 15ms.
func finish(t *testing.T, tr *Tracer, key string, seq uint64, extra time.Duration) (*SpanRecord, Ctx) {
	t.Helper()
	c := tr.Start(0)
	if !c.Live() {
		t.Fatalf("Start on a live tracer returned a dead Ctx: %+v", c)
	}
	ms := int64(time.Millisecond)
	c.MailboxEnq = c.Recv + 1*ms
	c.QueueEnq = c.MailboxEnq + 2*ms
	c.QueueDeq = c.QueueEnq + 3*ms
	c.ComputeEnd = c.QueueDeq + 4*ms
	publish := c.ComputeEnd + 5*ms + extra.Nanoseconds()
	return tr.FinishUpdate(key, seq, &c, publish), c
}

func TestSegmentsTelescopeToTotal(t *testing.T) {
	tr, err := New(Config{SampleEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	rec, c := finish(t, tr, "sess", 7, 0)
	if rec == nil {
		t.Fatal("SampleEvery=1 span was not retained")
	}
	want := map[string]int64{
		SegFrame:   1e6,
		SegMailbox: 2e6,
		SegQueue:   3e6,
		SegCompute: 4e6,
		SegDeliver: 5e6,
	}
	var sum int64
	for _, s := range rec.Segments {
		if s.Nanos != want[s.Name] {
			t.Errorf("segment %s = %d ns, want %d", s.Name, s.Nanos, want[s.Name])
		}
		sum += s.Nanos
	}
	if sum != rec.TotalNanos {
		t.Errorf("segments sum %d != total %d", sum, rec.TotalNanos)
	}
	if rec.TotalNanos != 15e6 {
		t.Errorf("total = %d ns, want 15ms", rec.TotalNanos)
	}
	if rec.Key != "sess" || rec.Seq != 7 || rec.StartNanos != c.Recv {
		t.Errorf("record identity wrong: %+v", rec)
	}
	if rec.Slow || rec.Breach {
		t.Errorf("fast span marked slow=%v breach=%v", rec.Slow, rec.Breach)
	}
}

func TestHeadSamplingAndSlowRetention(t *testing.T) {
	tr, err := New(Config{SampleEvery: 4, SlowThreshold: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	var kept int
	for i := 0; i < 16; i++ {
		if rec, _ := finish(t, tr, "sess", uint64(i), 0); rec != nil {
			kept++
			if rec.Slow {
				t.Errorf("span %d: 15ms span marked slow", i)
			}
		}
	}
	if kept != 4 {
		t.Errorf("kept %d of 16 spans at SampleEvery=4, want 4", kept)
	}
	// A slow span is retained regardless of the sampling phase.
	rec, _ := finish(t, tr, "sess", 99, 200*time.Millisecond)
	if rec == nil || !rec.Slow {
		t.Fatalf("slow span not retained or not marked: %+v", rec)
	}
	if got := tr.Observed(); got != 17 {
		t.Errorf("Observed = %d, want 17", got)
	}
	if got := tr.Retained(); got != 5 {
		t.Errorf("Retained = %d, want 5", got)
	}
}

func TestNegativeSampleEveryDisablesHeadSampling(t *testing.T) {
	tr, err := New(Config{SampleEvery: -1, SlowThreshold: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		if rec, _ := finish(t, tr, "sess", uint64(i), 0); rec != nil {
			t.Fatalf("span %d retained with head sampling disabled", i)
		}
	}
	if rec, _ := finish(t, tr, "sess", 99, time.Second); rec == nil {
		t.Fatal("slow span dropped with head sampling disabled")
	}
}

func TestRingBoundsAndOrder(t *testing.T) {
	tr, err := New(Config{SampleEvery: 1, RingCapacity: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		finish(t, tr, "sess", uint64(i), 0)
	}
	spans := tr.Spans()
	if len(spans) != 4 {
		t.Fatalf("ring holds %d spans, want 4", len(spans))
	}
	for i, s := range spans {
		if want := uint64(6 + i); s.Seq != want {
			t.Errorf("span[%d].Seq = %d, want %d (oldest first)", i, s.Seq, want)
		}
	}
}

func TestMarkPickupFirstOnlyAndMarkStore(t *testing.T) {
	tr, err := New(Config{SampleEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	rec, _ := finish(t, tr, "sess", 1, 0)
	end := rec.StartNanos + rec.TotalNanos
	tr.MarkPickup(rec, end+3e6)
	if rec.PickupNanos != 3e6 {
		t.Fatalf("PickupNanos = %d, want 3ms", rec.PickupNanos)
	}
	tr.MarkPickup(rec, end+9e6) // second subscriber: ignored
	if rec.PickupNanos != 3e6 {
		t.Errorf("second pickup overwrote the first: %d", rec.PickupNanos)
	}
	tr.MarkStore(rec, 2*time.Millisecond)
	if rec.StoreNanos != 2e6 {
		t.Errorf("StoreNanos = %d, want 2ms", rec.StoreNanos)
	}
}

func TestNilTracerAndDeadCtxAreInert(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Error("nil tracer reports enabled")
	}
	c := tr.Start(123)
	if c.Live() {
		t.Error("nil tracer returned a live Ctx")
	}
	if rec := tr.FinishUpdate("k", 1, &c, Now()); rec != nil {
		t.Error("nil tracer retained a span")
	}
	tr.MarkPickup(nil, Now())
	tr.MarkStore(nil, time.Second)
	if tr.Spans() != nil || tr.Observed() != 0 || tr.Retained() != 0 {
		t.Error("nil tracer reports state")
	}
	if _, ok := tr.SLOReport(); ok {
		t.Error("nil tracer reports an SLO")
	}
	var dead *Ctx
	if dead.Live() {
		t.Error("nil Ctx is live")
	}
	// A live tracer must still ignore a dead Ctx (untraced packet).
	live, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	zero := Ctx{}
	if rec := live.FinishUpdate("k", 1, &zero, Now()); rec != nil {
		t.Error("dead Ctx produced a span")
	}
	if live.Observed() != 0 {
		t.Error("dead Ctx counted as observed")
	}
}

func TestTracerMetricsRegistered(t *testing.T) {
	reg := metrics.NewRegistry()
	tr, err := New(Config{SampleEvery: 1, Metrics: reg, SLO: &SLOConfig{Target: 250 * time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	finish(t, tr, "sess", 1, 0)
	snap := reg.Snapshot()
	for _, name := range []string{
		"fleet.span.frame.seconds", "fleet.span.mailbox.seconds",
		"fleet.span.queue.seconds", "fleet.span.compute.seconds",
		"fleet.span.deliver.seconds", "fleet.span.total.seconds",
	} {
		h, ok := snap[name].(metrics.HistogramSnapshot)
		if !ok {
			t.Errorf("histogram %s not registered (got %T)", name, snap[name])
			continue
		}
		if h.Count != 1 {
			t.Errorf("%s count = %d, want 1", name, h.Count)
		}
	}
	for _, name := range []string{
		"fleet.spans.observed", "fleet.spans.retained",
		"fleet.slo.burn.fast", "fleet.slo.burn.slow",
		"fleet.slo.updates", "fleet.slo.breaches",
		"fleet.slo.target_ms", "fleet.slo.objective",
	} {
		if _, ok := snap[name].(float64); !ok {
			t.Errorf("gauge %s not registered (got %T)", name, snap[name])
		}
	}
	if got := snap["fleet.spans.observed"]; got != 1.0 {
		t.Errorf("fleet.spans.observed = %v, want 1", got)
	}
	if got := snap["fleet.slo.target_ms"]; got != 250.0 {
		t.Errorf("fleet.slo.target_ms = %v, want 250", got)
	}
}

func TestSLOBurnMathAndBreachMarking(t *testing.T) {
	tr, err := New(Config{SampleEvery: 1, SLO: &SLOConfig{
		Target:    10 * time.Millisecond, // every 15ms span breaches
		Objective: 0.9,                   // budget 0.1
	}})
	if err != nil {
		t.Fatal(err)
	}
	// 4 breaches, 4 compliant (finish total is 15ms; extra -10ms → 5ms).
	for i := 0; i < 4; i++ {
		rec, _ := finish(t, tr, "a", uint64(i), 0)
		if !rec.Breach {
			t.Errorf("15ms span %d not marked breach at 10ms target", i)
		}
	}
	for i := 0; i < 4; i++ {
		rec, _ := finish(t, tr, "b", uint64(i), -10*time.Millisecond)
		if rec.Breach {
			t.Errorf("5ms span %d marked breach at 10ms target", i)
		}
	}
	rep, ok := tr.SLOReport()
	if !ok {
		t.Fatal("SLOReport not ok with SLO configured")
	}
	if rep.Updates != 8 || rep.Breaches != 4 {
		t.Fatalf("updates/breaches = %d/%d, want 8/4", rep.Updates, rep.Breaches)
	}
	if rep.FastBad != 0.5 || rep.SlowBad != 0.5 {
		t.Errorf("bad fractions = %v/%v, want 0.5", rep.FastBad, rep.SlowBad)
	}
	// burn = badFraction / (1 - objective) = 0.5 / 0.1 = 5.
	if math.Abs(rep.FastBurn-5) > 1e-9 || math.Abs(rep.SlowBurn-5) > 1e-9 {
		t.Errorf("burn rates = %v/%v, want 5", rep.FastBurn, rep.SlowBurn)
	}
	// Worst tenant sorts first.
	rows := tr.slo.tenantTable()
	if len(rows) != 2 || rows[0].Key != "a" || rows[0].BadFrac != 1 || rows[1].BadFrac != 0 {
		t.Errorf("tenant table = %+v, want a(1.0) then b(0.0)", rows)
	}
}

func TestOnBurnFiresOncePerCooldown(t *testing.T) {
	var fired []BurnReport
	tr, err := New(Config{SampleEvery: 1, SLO: &SLOConfig{
		Target:    time.Microsecond, // everything breaches
		Objective: 0.9,
		OnBurn:    func(r BurnReport) { fired = append(fired, r) },
	}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		finish(t, tr, "sess", uint64(i), 0)
	}
	if len(fired) != 1 {
		t.Fatalf("OnBurn fired %d times within the %v cooldown, want 1", len(fired), burnCooldown)
	}
	if fired[0].FastBurn < burnThreshold {
		t.Errorf("OnBurn report burn %v < threshold", fired[0].FastBurn)
	}
	// A breach published once the cooldown has elapsed fires again.
	finish(t, tr, "sess", 20, burnCooldown)
	if len(fired) != 2 {
		t.Fatalf("OnBurn fired %d times after the cooldown elapsed, want 2", len(fired))
	}
}

// TestBurnFireForcesRetention pins the flight-dump contract: the span
// that tips the burn rate over is retained even when head sampling and
// slow retention are both disabled, so OnBurn's dump is never empty.
func TestBurnFireForcesRetention(t *testing.T) {
	var ringAtFire []SpanRecord
	var tr *Tracer
	tr, err := New(Config{
		SampleEvery:   -1, // no head sampling
		SlowThreshold: -1, // no slow retention
		SLO: &SLOConfig{
			Target:    time.Microsecond, // everything breaches
			Objective: 0.9,
			OnBurn:    func(BurnReport) { ringAtFire = tr.Spans() },
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	rec, _ := finish(t, tr, "sess", 1, 0)
	if rec == nil {
		t.Fatal("burn-firing span was not retained")
	}
	if !rec.Breach {
		t.Error("burn-firing span not marked as a breach")
	}
	if len(ringAtFire) != 1 || ringAtFire[0].ID != rec.ID {
		t.Fatalf("OnBurn saw ring %+v, want exactly the tipping span id %d", ringAtFire, rec.ID)
	}
	// Later breaches inside the cooldown fire nothing and so retain
	// nothing — forced retention is tied to the fire, not the breach.
	if rec2, _ := finish(t, tr, "sess", 2, 0); rec2 != nil {
		t.Error("non-firing breach was retained with sampling disabled")
	}
}

func TestTenantOverflowFolds(t *testing.T) {
	tr, err := New(Config{SampleEvery: -1, SlowThreshold: -1, SLO: &SLOConfig{
		Target: time.Second,
	}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < maxTenants+4; i++ {
		finish(t, tr, fmt.Sprintf("s%d", i), 1, 0)
	}
	rows := tr.slo.tenantTable()
	if len(rows) != maxTenants+1 {
		t.Fatalf("tenant table has %d rows, want %d (%d + overflow)", len(rows), maxTenants+1, maxTenants)
	}
	var over *TenantSLO
	for i := range rows {
		if rows[i].Key == overflowTenant {
			over = &rows[i]
		}
	}
	if over == nil || over.Updates != 4 {
		t.Fatalf("overflow row = %+v, want 4 folded updates", over)
	}
}

func TestBurnWindowAdvanceZeroesStaleBuckets(t *testing.T) {
	w := newBurnWindow(15 * time.Second) // 1s buckets
	now := int64(1e15)
	w.observe(now, true)
	w.observe(now, true)
	if got := w.badFraction(now); got != 1 {
		t.Fatalf("bad fraction = %v, want 1", got)
	}
	// Half a window later the observations are still in.
	if got := w.badFraction(now + 7e9); got != 1 {
		t.Errorf("bad fraction after 7s = %v, want 1", got)
	}
	// Two windows later everything has aged out.
	if got := w.badFraction(now + 31e9); got != 0 {
		t.Errorf("bad fraction after 31s = %v, want 0", got)
	}
}

func TestServeHTTPPage(t *testing.T) {
	tr, err := New(Config{SampleEvery: 1, SLO: &SLOConfig{Target: time.Second}})
	if err != nil {
		t.Fatal(err)
	}
	finish(t, tr, "sess", 1, 0)
	finish(t, tr, "sess", 2, 0)
	rr := httptest.NewRecorder()
	tr.ServeHTTP(rr, httptest.NewRequest("GET", "/debug/spans", nil))
	if rr.Code != 200 {
		t.Fatalf("status %d", rr.Code)
	}
	var page struct {
		Schema   string       `json:"schema"`
		Observed uint64       `json:"spans_observed"`
		SLO      *BurnReport  `json:"slo"`
		Spans    []SpanRecord `json:"spans"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &page); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if page.Schema != SpansSchema || page.Observed != 2 || page.SLO == nil {
		t.Errorf("page = schema %q observed %d slo %v", page.Schema, page.Observed, page.SLO)
	}
	if len(page.Spans) != 2 || page.Spans[0].Seq != 2 {
		t.Errorf("spans not newest-first: %+v", page.Spans)
	}
	// Nil tracer 404s rather than panicking.
	rr = httptest.NewRecorder()
	(*Tracer)(nil).ServeHTTP(rr, httptest.NewRequest("GET", "/debug/spans", nil))
	if rr.Code != 404 {
		t.Errorf("nil tracer status %d, want 404", rr.Code)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{RingCapacity: -1}); err == nil {
		t.Error("negative ring capacity accepted")
	}
	if _, err := New(Config{SLO: &SLOConfig{}}); err == nil {
		t.Error("zero SLO target accepted")
	}
	if _, err := New(Config{SLO: &SLOConfig{Target: time.Second, Objective: 1.5}}); err == nil {
		t.Error("objective outside (0,1) accepted")
	}
}

func TestNowIsMonotoneAndWallAnchored(t *testing.T) {
	a := Now()
	b := Now()
	if b < a {
		t.Fatalf("Now went backwards: %d then %d", a, b)
	}
	if d := time.Since(WallTime(a)); d < 0 || d > time.Minute {
		t.Errorf("Now drifted %v from wall clock", d)
	}
}
