package core

import (
	"errors"
	"math"
	"math/cmplx"
	"testing"
	"time"

	"phasebeat/internal/csisim"
	"phasebeat/internal/metrics"
	"phasebeat/internal/trace"
)

// staticPackets builds n packets of a scene with no phase motion at all:
// environment detection sees no person, so every stride fails at the
// segment stage.
func staticPackets(n, ants, nSub int, rate float64) []trace.Packet {
	out := make([]trace.Packet, n)
	for i := range out {
		p := trace.NewPacket(float64(i)/rate, ants, nSub)
		for a := range p.CSI {
			for s := range p.CSI[a] {
				p.CSI[a][s] = cmplx.Rect(1, 0.3*float64(a)+0.05*float64(s))
			}
		}
		out[i] = p
	}
	return out
}

// TestStageMetricsCountsErrors: a Monitor stride whose stage fails lands
// in that stage's pipeline.stage.<name>.errors counter — the metrics read
// the stride's record, which keeps the failing stage.
func TestStageMetricsCountsErrors(t *testing.T) {
	reg := metrics.NewRegistry()
	cfg := allocTestConfig()
	cfg.NumSubcarriers = 8
	cfg.Metrics = reg
	m, err := NewMonitor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan []Update)
	go func() {
		var us []Update
		for u := range m.Updates() {
			us = append(us, u)
		}
		done <- us
	}()
	n := int((cfg.WindowSeconds + 2*cfg.UpdateEverySeconds) * cfg.SampleRate)
	for _, p := range staticPackets(n, cfg.NumAntennas, cfg.NumSubcarriers, cfg.SampleRate) {
		if !m.Ingest(p) {
			t.Fatal("ingest refused mid-stream")
		}
	}
	m.Drain()
	updates := <-done
	if len(updates) == 0 {
		t.Fatal("no updates emitted")
	}
	for _, u := range updates {
		var se *StageError
		if !errors.As(u.Err, &se) || se.Stage != StageSegment {
			t.Fatalf("update at t=%v: err %v, want a segment-stage failure", u.Time, u.Err)
		}
	}
	stageErrors := func(stage string) uint64 {
		return reg.Counter(metricStagePrefix + stage + metricStageErrorsSuffix).Value()
	}
	if got := stageErrors(StageSegment); got != uint64(len(updates)) {
		t.Fatalf("segment errors = %d, want one per failed stride (%d)", got, len(updates))
	}
	for _, stage := range []string{StageSmooth, StageGate, StageEnvDetect, StageEstimate} {
		if got := stageErrors(stage); got != 0 {
			t.Errorf("stage %s errors = %d on strides it passed", stage, got)
		}
	}
	// The failing stage is timed like any other; the stages after it
	// never ran.
	seg := reg.Histogram(metricStagePrefix+StageSegment+metricStageSecondsSuffix, metrics.DefLatencyBuckets)
	if seg.Count() != uint64(len(updates)) {
		t.Fatalf("segment histogram count = %d, want %d", seg.Count(), len(updates))
	}
	est := reg.Histogram(metricStagePrefix+StageEstimate+metricStageSecondsSuffix, metrics.DefLatencyBuckets)
	if est.Count() != 0 {
		t.Fatalf("estimate histogram count = %d after failed strides, want 0", est.Count())
	}
}

// TestMonitorMetricsEndToEnd runs a Monitor with a registry wired and
// checks every metric family the endpoint is expected to serve: stage
// latency histograms, the stride histogram, the updates counter and the
// quarantine/health callback gauges.
func TestMonitorMetricsEndToEnd(t *testing.T) {
	sim, err := csisim.FixedRatesScenario([]float64{18}, 7)
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	cfg := allocTestConfig()
	cfg.Metrics = reg
	m, err := NewMonitor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	done := make(chan int)
	go func() {
		n := 0
		for range m.Updates() {
			n++
		}
		done <- n
	}()

	// One full window plus two strides, with two quarantine-bound packets
	// mixed in (wrong shape, NaN cell).
	total := int((cfg.WindowSeconds + 2*cfg.UpdateEverySeconds) * cfg.SampleRate)
	for i := 0; i < total; i++ {
		p := sim.NextPacket()
		if i == 10 {
			bad := p.Clone()
			bad.CSI = bad.CSI[:1]
			m.Ingest(bad)
		}
		if i == 20 {
			bad := p.Clone()
			bad.CSI[0][0] = complex(math.NaN(), 0)
			m.Ingest(bad)
		}
		if !m.Ingest(p) {
			t.Fatal("ingest refused mid-stream")
		}
	}
	// Close abandons packets still buffered in the ingest channel, so
	// wait for the worker to drain everything before shutting down.
	deadline := time.Now().Add(5 * time.Second)
	for {
		h := m.Health()
		if h.Accepted+h.QuarantinedMalformed+h.QuarantinedNonFinite+h.QuarantinedNonMonotonic >= uint64(total)+2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("monitor never drained ingest: %+v", h)
		}
		time.Sleep(time.Millisecond)
	}
	m.Close()
	updates := <-done
	if updates == 0 {
		t.Fatal("no updates emitted")
	}

	snap := reg.Snapshot()
	if got := snap[metricUpdatesEmitted].(uint64); got != uint64(updates) {
		t.Errorf("updates counter = %d, delivered %d", got, updates)
	}
	// The stride histogram is fed from the same delivered records as the
	// updates counter, so the two agree exactly.
	stride := reg.Histogram(metricStrideSeconds, metrics.DefLatencyBuckets)
	if c := stride.Count(); c != uint64(updates) {
		t.Errorf("stride histogram count = %d, delivered %d", c, updates)
	}
	// The incremental engine records smooth and gate itself; downstream
	// stages run per stride through the shared graph.
	for _, stage := range []string{StageSmooth, StageGate, StageEstimate} {
		h := reg.Histogram(metricStagePrefix+stage+metricStageSecondsSuffix, metrics.DefLatencyBuckets)
		if h.Count() == 0 {
			t.Errorf("stage %s histogram empty", stage)
		}
	}
	if got := snap[metricHealthPrefix+"quarantined.malformed"].(float64); got != 1 {
		t.Errorf("malformed gauge = %v, want 1", got)
	}
	if got := snap[metricHealthPrefix+"quarantined.nonfinite"].(float64); got != 1 {
		t.Errorf("nonfinite gauge = %v, want 1", got)
	}
	if got := snap[metricHealthPrefix+"accepted"].(float64); got != float64(total) {
		t.Errorf("accepted gauge = %v, want %d", got, total)
	}
}
