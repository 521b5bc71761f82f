package metrics

import (
	"math"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestSanitizeMetricName(t *testing.T) {
	cases := map[string]string{
		"fleet.slo.burn.fast":  "fleet_slo_burn_fast",
		"store.append.seconds": "store_append_seconds",
		"already_fine:name":    "already_fine:name",
		"9leading":             "_9leading",
		"spaces and-dashes":    "spaces_and_dashes",
	}
	for in, want := range cases {
		if got := sanitizeMetricName(in); got != want {
			t.Errorf("sanitize(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestWritePrometheusFamilies(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("pipeline.runs").Add(3)
	reg.Gauge("monitor.sessions").Set(2.5)
	reg.RegisterFunc("fleet.slo.burn.fast", func() float64 { return 1.25 })
	h := reg.Histogram("span.total.seconds", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5) // overflow

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE pipeline_runs counter\npipeline_runs 3\n",
		"# TYPE monitor_sessions gauge\nmonitor_sessions 2.5\n",
		"# TYPE fleet_slo_burn_fast gauge\nfleet_slo_burn_fast 1.25\n",
		"# TYPE span_total_seconds histogram\n",
		// Cumulative buckets: 2 at le=0.1, 3 at le=1, 4 at +Inf.
		"span_total_seconds_bucket{le=\"0.1\"} 2\n",
		"span_total_seconds_bucket{le=\"1\"} 3\n",
		"span_total_seconds_bucket{le=\"+Inf\"} 4\n",
		"span_total_seconds_sum 5.6\n",
		"span_total_seconds_count 4\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
	// Families come out in sorted name order.
	if strings.Index(out, "fleet_slo_burn_fast") > strings.Index(out, "pipeline_runs") {
		t.Error("families not in sorted name order")
	}
}

func TestWritePrometheusEmptyBucketsKeptCumulative(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("h", []float64{1, 2, 3})
	h.Observe(0.5)
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	// Empty upper buckets still emit their (cumulative) series.
	for _, want := range []string{
		"h_bucket{le=\"1\"} 1\n",
		"h_bucket{le=\"2\"} 1\n",
		"h_bucket{le=\"3\"} 1\n",
		"h_bucket{le=\"+Inf\"} 1\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestPrometheusHandlerAndNilRegistry(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("c").Inc()
	rr := httptest.NewRecorder()
	reg.PrometheusHandler().ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
	if rr.Code != 200 {
		t.Fatalf("status %d", rr.Code)
	}
	if ct := rr.Header().Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("content type %q lacks exposition version", ct)
	}
	if !strings.Contains(rr.Body.String(), "c 1\n") {
		t.Errorf("body missing counter sample:\n%s", rr.Body.String())
	}
	var nilReg *Registry
	var b strings.Builder
	if err := nilReg.WritePrometheus(&b); err != nil || b.Len() != 0 {
		t.Errorf("nil registry wrote %q err %v", b.String(), err)
	}
}

func TestFormatFloat(t *testing.T) {
	cases := map[float64]string{
		math.Inf(1):  "+Inf",
		math.Inf(-1): "-Inf",
		2.5:          "2.5",
		1e-06:        "1e-06",
	}
	for in, want := range cases {
		if got := formatFloat(in); got != want {
			t.Errorf("formatFloat(%v) = %q, want %q", in, got, want)
		}
	}
	if got := formatFloat(math.NaN()); got != "NaN" {
		t.Errorf("formatFloat(NaN) = %q", got)
	}
}

// histQuantile is the histogram's q-quantile as its snapshots compute it.
func histQuantile(h *Histogram, q float64) float64 {
	if h == nil {
		return 0
	}
	counts := make([]uint64, len(h.counts))
	var total uint64
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
		total += counts[i]
	}
	return quantile(h.bounds, counts, total, q)
}

func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4})
	// 10 observations uniform in the (1,2] bucket.
	for i := 0; i < 10; i++ {
		h.Observe(1.5)
	}
	// p50: rank 5 of 10, all in bucket (1,2] → 1 + 1*(5/10) = 1.5.
	if got := histQuantile(h, 0.5); got != 1.5 {
		t.Errorf("p50 = %v, want 1.5", got)
	}
	// Add 10 in the first bucket (0,1]: p50 now sits at the bucket edge.
	for i := 0; i < 10; i++ {
		h.Observe(0.5)
	}
	if got := histQuantile(h, 0.5); got != 1.0 {
		t.Errorf("p50 after rebalance = %v, want 1.0", got)
	}
	// p75: rank 15 of 20 → 5 into the 10 of bucket (1,2] → 1.5.
	if got := histQuantile(h, 0.75); got != 1.5 {
		t.Errorf("p75 = %v, want 1.5", got)
	}
	// Overflow clamps to the highest finite bound.
	h2 := NewHistogram([]float64{1, 2})
	h2.Observe(100)
	if got := histQuantile(h2, 0.5); got != 2 {
		t.Errorf("overflow p50 = %v, want clamp to 2", got)
	}
	// Empty / out-of-range.
	h3 := NewHistogram([]float64{1})
	if histQuantile(h3, 0.5) != 0 || histQuantile(h, 0) != 0 || histQuantile(h, 1) != 0 {
		t.Error("empty histogram or out-of-range q should return 0")
	}
	var nilH *Histogram
	if histQuantile(nilH, 0.5) != 0 {
		t.Error("nil histogram quantile should be 0")
	}
}

func TestSnapshotCarriesQuantiles(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4})
	for i := 0; i < 100; i++ {
		h.Observe(1.5)
	}
	s := h.Snapshot()
	if s.P50 != 1.5 || s.P95 == 0 || s.P99 == 0 {
		t.Errorf("snapshot quantiles = p50 %v p95 %v p99 %v", s.P50, s.P95, s.P99)
	}
	if s.P50 > s.P95 || s.P95 > s.P99 {
		t.Errorf("quantiles not monotone: %v %v %v", s.P50, s.P95, s.P99)
	}
	if empty := (*Histogram)(nil).Snapshot(); empty.P50 != 0 {
		t.Error("nil snapshot has quantiles")
	}
}
