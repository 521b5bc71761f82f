package metrics

import (
	"encoding/json"
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	c := NewCounter()
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	g := NewGauge()
	g.Set(2.5)
	if got := g.Value(); got != 2.5 {
		t.Fatalf("gauge = %v, want 2.5", got)
	}
}

// TestNilSafety pins the zero-overhead-when-disabled contract: every
// mutating method and accessor must be a safe no-op on nil receivers,
// including the nil-registry accessors feeding them.
func TestNilSafety(t *testing.T) {
	var c *Counter
	c.Inc()
	c.Add(3)
	if c.Value() != 0 {
		t.Fatal("nil counter should read 0")
	}
	var g *Gauge
	g.Set(1)
	if g.Value() != 0 {
		t.Fatal("nil gauge should read 0")
	}
	var h *Histogram
	h.Observe(0.5)
	if h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil histogram should stay empty")
	}
	if s := h.Snapshot(); s.Count != 0 || len(s.Buckets) != 0 {
		t.Fatal("nil histogram snapshot should be empty")
	}

	var r *Registry
	r.Counter("a").Inc()
	r.Gauge("b").Set(1)
	r.Histogram("c", DefLatencyBuckets).Observe(1)
	r.Register("d", NewCounter())
	r.RegisterFunc("e", func() float64 { return 1 })
	if snap := r.Snapshot(); snap != nil {
		t.Fatalf("nil registry snapshot = %v, want nil", snap)
	}
	var sb strings.Builder
	if err := r.WriteJSON(&sb); err != nil {
		t.Fatalf("nil registry WriteJSON: %v", err)
	}
}

func TestHistogramBucketing(t *testing.T) {
	h := NewHistogram([]float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 2, 10, 50, 1000} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 6 {
		t.Fatalf("count = %d, want 6", s.Count)
	}
	want := map[float64]uint64{1: 2, 10: 2, 100: 1, math.Inf(1): 1}
	if len(s.Buckets) != len(want) {
		t.Fatalf("buckets = %+v, want %v", s.Buckets, want)
	}
	for _, b := range s.Buckets {
		if want[b.UpperBound] != b.N {
			t.Errorf("bucket le=%v: n=%d, want %d", b.UpperBound, b.N, want[b.UpperBound])
		}
	}
	if math.Abs(s.Sum-1063.5) > 1e-9 {
		t.Fatalf("sum = %v, want 1063.5", s.Sum)
	}
}

func TestHistogramPanicsOnBadBounds(t *testing.T) {
	for name, bounds := range map[string][]float64{
		"empty":    nil,
		"unsorted": {2, 1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s bounds: expected panic", name)
				}
			}()
			NewHistogram(bounds)
		}()
	}
}

func TestRegistryGetOrCreateShares(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x")
	b := r.Counter("x")
	if a != b {
		t.Fatal("same name should return the same counter")
	}
	a.Inc()
	if b.Value() != 1 {
		t.Fatal("shared counter should see the increment")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("type conflict should panic")
			}
		}()
		r.Gauge("x")
	}()
}

func TestRegistryJSONAndHTTP(t *testing.T) {
	r := NewRegistry()
	r.Counter("pkts").Add(7)
	r.Gauge("rate").Set(12.5)
	r.RegisterFunc("queue", func() float64 { return 3 })
	h := r.Histogram("lat", []float64{0.001, 1})
	h.Observe(0.0005)
	h.Observe(50)

	rec := httptest.NewRecorder()
	r.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "application/json") {
		t.Fatalf("content type = %q", ct)
	}
	var got map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatalf("endpoint JSON invalid: %v\n%s", err, rec.Body.String())
	}
	if got["pkts"] != float64(7) || got["rate"] != 12.5 || got["queue"] != float64(3) {
		t.Fatalf("scalar values wrong: %v", got)
	}
	lat, ok := got["lat"].(map[string]any)
	if !ok || lat["count"] != float64(2) {
		t.Fatalf("histogram value wrong: %v", got["lat"])
	}
	// The overflow bucket must serialize as the string "+Inf".
	if !strings.Contains(rec.Body.String(), `"+Inf"`) {
		t.Fatalf("overflow bucket not serialized: %s", rec.Body.String())
	}
}

// TestConcurrentRecording hammers one metric set from many goroutines;
// run under -race this pins the lock-free hot paths as data-race-free,
// and the final values pin that no update is lost.
func TestConcurrentRecording(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h", DefLatencyBuckets)
	const workers, iters = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				c.Inc()
				g.Set(1)
				h.Observe(1e-5)
				// Concurrent snapshots must not race with recording.
				if i%100 == 0 {
					r.Snapshot()
				}
			}
		}()
	}
	wg.Wait()
	if c.Value() != workers*iters {
		t.Fatalf("counter lost updates: %d", c.Value())
	}
	if g.Value() != 1 {
		t.Fatalf("gauge = %v, want 1", g.Value())
	}
	if h.Count() != workers*iters {
		t.Fatalf("histogram lost updates: %d", h.Count())
	}
	if math.Abs(h.Sum()-workers*iters*1e-5) > 1e-6 {
		t.Fatalf("histogram sum drifted: %v", h.Sum())
	}
}
