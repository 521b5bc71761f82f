package fleet

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"phasebeat/internal/core"
	"phasebeat/internal/explain"
	"phasebeat/internal/metrics"
	"phasebeat/internal/otrace"
)

// tracedManager is testManager plus a Tracer wired into the fleet.
func tracedManager(t testing.TB, shards int, reg *metrics.Registry, tr *otrace.Tracer) *Manager {
	t.Helper()
	hc := testHarnessConfig()
	mgr, err := New(Config{
		Shards:        shards,
		SessionBuffer: 1024,
		Metrics:       reg,
		Tracer:        tr,
		Monitor: core.MonitorConfig{
			Pipeline:           core.ConfigForRate(hc.SampleRate),
			Persons:            1,
			SampleRate:         hc.SampleRate,
			NumAntennas:        hc.Antennas,
			NumSubcarriers:     hc.Subcarriers,
			WindowSeconds:      hc.WindowSeconds,
			UpdateEverySeconds: hc.StrideSeconds,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return mgr
}

// TestSpanDecompositionEndToEnd is the tentpole acceptance check: every
// update produced from a traced packet yields a span whose frame /
// mailbox / queue / compute / deliver segments telescope exactly to the
// measured ingest→publish total, carries the pipeline's per-stage
// timings, and is marked with the subscriber's pickup dwell.
func TestSpanDecompositionEndToEnd(t *testing.T) {
	reg := metrics.NewRegistry()
	tr, err := otrace.New(otrace.Config{SampleEvery: 1, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	mgr := tracedManager(t, 2, reg, tr)
	defer mgr.Close()

	pkts, err := templatePackets(testHarnessConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Open("alpha", SessionConfig{}); err != nil {
		t.Fatal(err)
	}
	feedAll(t, mgr, "alpha", pkts)

	s, _ := mgr.Get("alpha")
	snap, ok := s.Wait(0, 10*time.Second)
	if !ok {
		t.Fatalf("no update: %+v", s.Health())
	}

	spans := tr.Spans()
	if len(spans) == 0 {
		t.Fatal("no spans retained at SampleEvery=1")
	}
	if tr.Observed() != uint64(len(spans)) {
		t.Errorf("observed %d != retained %d at SampleEvery=1", tr.Observed(), len(spans))
	}
	order := []string{
		otrace.SegFrame, otrace.SegMailbox, otrace.SegQueue,
		otrace.SegCompute, otrace.SegDeliver,
	}
	for _, sp := range spans {
		if sp.Key != "alpha" {
			t.Fatalf("span for unknown session %q", sp.Key)
		}
		if sp.TotalNanos <= 0 {
			t.Fatalf("span %d has non-positive total %d", sp.ID, sp.TotalNanos)
		}
		var sum int64
		for i, seg := range sp.Segments {
			if seg.Name != order[i] {
				t.Fatalf("span %d segment[%d] = %q, want %q", sp.ID, i, seg.Name, order[i])
			}
			if seg.Nanos < 0 {
				t.Fatalf("span %d segment %s negative: %d", sp.ID, seg.Name, seg.Nanos)
			}
			sum += seg.Nanos
		}
		// The segments telescope: the decomposition accounts for every
		// nanosecond of the measured total, exactly.
		if sum != sp.TotalNanos {
			t.Fatalf("span %d segments sum %d != total %d", sp.ID, sum, sp.TotalNanos)
		}
		if len(sp.Stages) == 0 {
			t.Fatalf("span %d carries no pipeline stage timings", sp.ID)
		}
	}

	// Wait picked up the head update: its span (and only a span whose
	// seq matches) records the pickup dwell.
	var pickedUp int
	for _, sp := range spans {
		if sp.PickupNanos > 0 {
			pickedUp++
			if sp.Seq != snap.Seq {
				t.Errorf("pickup marked on span seq %d, picked up %d", sp.Seq, snap.Seq)
			}
		}
	}
	if pickedUp != 1 {
		t.Errorf("%d spans marked picked up, want exactly 1", pickedUp)
	}

	// The latency histograms saw every span.
	ms := reg.Snapshot()
	total, ok := ms["fleet.span.total.seconds"].(metrics.HistogramSnapshot)
	if !ok || total.Count != tr.Observed() {
		t.Errorf("fleet.span.total.seconds count = %+v, want %d", total, tr.Observed())
	}
}

// TestSpanClientSendOverWire checks the network path: the server stamps
// Recv before frame decode and the client's advisory send timestamp
// survives the protocol round trip onto the span.
func TestSpanClientSendOverWire(t *testing.T) {
	tr, err := otrace.New(otrace.Config{SampleEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	mgr := tracedManager(t, 1, nil, tr)
	defer mgr.Close()
	addr := startServer(t, mgr)

	c, err := Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Open("wire", SessionConfig{}); err != nil {
		t.Fatal(err)
	}
	pkts, err := templatePackets(testHarnessConfig())
	if err != nil {
		t.Fatal(err)
	}
	before := time.Now().UnixNano()
	for _, p := range pkts {
		if err := c.Ingest("wire", p); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		if _, ok, err := c.Subscribe("wire", 0, 2*time.Second); err != nil {
			t.Fatal(err)
		} else if ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no update over the wire in 30s")
		}
	}
	spans := tr.Spans()
	if len(spans) == 0 {
		t.Fatal("no spans from the wire path")
	}
	for _, sp := range spans {
		if sp.ClientSendNanos < before {
			t.Fatalf("span %d client send %d predates the test (%d)", sp.ID, sp.ClientSendNanos, before)
		}
		if sp.StartNanos < sp.ClientSendNanos-int64(time.Minute) {
			t.Fatalf("span %d recv %d wildly before client send %d", sp.ID, sp.StartNanos, sp.ClientSendNanos)
		}
	}
}

// TestSLOBurnFiresOneFlightDump is the burn-path acceptance check: an
// unmeetable latency target drives the fast burn rate past 1 and the
// OnBurn hook fires exactly once per cooldown, producing one slo-burn
// flight dump carrying the retained spans.
func TestSLOBurnFiresOneFlightDump(t *testing.T) {
	dir := t.TempDir()
	rec, err := explain.NewRecorder(explain.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	var fired atomic.Uint64
	var tr *otrace.Tracer
	tr, err = otrace.New(otrace.Config{
		SampleEvery: 1,
		SLO: &otrace.SLOConfig{
			Target:    time.Nanosecond, // unmeetable: every update breaches
			Objective: 0.999,
			// The 5-minute burn cooldown outlasts the test: at most one firing.
			OnBurn: func(rep otrace.BurnReport) {
				fired.Add(1)
				note, _ := json.Marshal(rep)
				if _, err := rec.DumpSpans(explain.TriggerSLOBurn, tr.Spans(), string(note)); err != nil {
					t.Errorf("DumpSpans: %v", err)
				}
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	mgr := tracedManager(t, 1, nil, tr)
	defer mgr.Close()

	pkts, err := templatePackets(testHarnessConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Open("burn", SessionConfig{}); err != nil {
		t.Fatal(err)
	}
	feedAll(t, mgr, "burn", pkts)

	rep, ok := tr.SLOReport()
	if !ok {
		t.Fatal("no SLO report")
	}
	if rep.Breaches == 0 || rep.FastBurn <= 1 {
		t.Fatalf("unmeetable target did not burn: %+v", rep)
	}
	if got := fired.Load(); got != 1 {
		t.Fatalf("OnBurn fired %d times within the burn cooldown, want exactly 1", got)
	}

	matches, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil || len(matches) != 1 {
		t.Fatalf("flight dir has %d dumps (err %v), want 1", len(matches), err)
	}
	if !strings.Contains(filepath.Base(matches[0]), explain.TriggerSLOBurn) {
		t.Errorf("dump file %q does not name the slo-burn trigger", matches[0])
	}
	raw, err := os.ReadFile(matches[0])
	if err != nil {
		t.Fatal(err)
	}
	var dump explain.FlightDump
	if err := json.Unmarshal(raw, &dump); err != nil {
		t.Fatalf("bad dump JSON: %v", err)
	}
	if dump.Trigger != explain.TriggerSLOBurn {
		t.Errorf("dump trigger %q", dump.Trigger)
	}
	if len(dump.Spans) == 0 {
		t.Error("slo-burn dump carries no spans")
	}
	if !strings.Contains(dump.Note, "fast_burn") {
		t.Errorf("dump note %q lacks the burn report", dump.Note)
	}
}

// TestTracingDisabledIsInert pins the zero-overhead contract at the
// fleet boundary: with no tracer, updates flow exactly as before and no
// span state exists anywhere.
func TestTracingDisabledIsInert(t *testing.T) {
	mgr := testManager(t, 1, nil)
	defer mgr.Close()
	pkts, err := templatePackets(testHarnessConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Open("plain", SessionConfig{}); err != nil {
		t.Fatal(err)
	}
	feedAll(t, mgr, "plain", pkts)
	s, _ := mgr.Get("plain")
	if _, ok := s.Wait(0, 10*time.Second); !ok {
		t.Fatalf("no update without tracer: %+v", s.Health())
	}
	var nilTr *otrace.Tracer
	if nilTr.Spans() != nil || nilTr.Observed() != 0 {
		t.Error("nil tracer accumulated state")
	}
}
