package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"

	"phasebeat"
)

// TestServeMetricsEndpoint pins the endpoint contract: /debug/metrics
// serves the registry's JSON snapshot, /debug/pprof/ serves the pprof
// index.
func TestServeMetricsEndpoint(t *testing.T) {
	reg := phasebeat.NewMetricsRegistry()
	reg.Counter("test.counter").Add(3)
	ln, err := serveMetrics("127.0.0.1:0", reg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	resp, err := http.Get(fmt.Sprintf("http://%s/debug/metrics", ln.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var snap map[string]any
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("endpoint JSON invalid: %v\n%s", err, body)
	}
	if snap["test.counter"] != float64(3) {
		t.Fatalf("counter missing from snapshot: %v", snap)
	}

	// The same registry scrapes as Prometheus text at /metrics.
	resp, err = http.Get(fmt.Sprintf("http://%s/metrics", ln.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: status %d", resp.StatusCode)
	}
	if !strings.Contains(string(body), "# TYPE test_counter counter\ntest_counter 3\n") {
		t.Fatalf("/metrics exposition missing sanitized counter:\n%s", body)
	}

	resp, err = http.Get(fmt.Sprintf("http://%s/debug/pprof/", ln.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof index: status %d", resp.StatusCode)
	}
}

// TestServeExplainEndpoints pins the /debug/explain and /debug/flight
// contracts: 404 before any trace, JSON of the last trace after one, and
// an on-demand dump whose path points at a readable bundle.
func TestServeExplainEndpoints(t *testing.T) {
	rec, err := phasebeat.NewExplainRecorder(phasebeat.ExplainConfig{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := serveMetrics("127.0.0.1:0", phasebeat.NewMetricsRegistry(), rec)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	base := fmt.Sprintf("http://%s", ln.Addr())

	resp, err := http.Get(base + "/debug/explain")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("empty recorder: status %d, want 404", resp.StatusCode)
	}

	rec.OnStride(&phasebeat.StrideRecord{})
	resp, err = http.Get(base + "/debug/explain")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/explain: status %d\n%s", resp.StatusCode, body)
	}
	var tr phasebeat.ExplainTrace
	if err := json.Unmarshal(body, &tr); err != nil {
		t.Fatalf("trace JSON invalid: %v\n%s", err, body)
	}
	if tr.Seq != 1 {
		t.Fatalf("trace seq = %d, want 1", tr.Seq)
	}

	resp, err = http.Get(base + "/debug/flight")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/flight: status %d\n%s", resp.StatusCode, body)
	}
	var out map[string]string
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(out["dump"]); err != nil {
		t.Fatalf("dump path unreadable: %v", err)
	}
}

// TestWatchServesMetricsLive is the acceptance check for -metrics-addr:
// while -watch streams, the endpoint must serve stage latency
// histograms and the quarantine/health gauges.
func TestWatchServesMetricsLive(t *testing.T) {
	// Reserve a port, release it, and hand it to -metrics-addr. The
	// reuse window is tiny and local to the test host.
	probe, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := probe.Addr().String()
	probe.Close()

	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-watch", "55", "-seed", "9", "-fault-nan", "0.001", "-metrics-addr", addr})
	}()

	deadline := time.Now().Add(60 * time.Second)
	var lastBody string
	for {
		if time.Now().After(deadline) {
			t.Fatalf("metrics never became complete; last body:\n%s", lastBody)
		}
		select {
		case err := <-done:
			// The watch may finish before we sampled a complete snapshot;
			// that means it ran too fast, not that metrics were absent —
			// but the run itself must have succeeded.
			if err != nil {
				t.Fatalf("run -watch -metrics-addr: %v", err)
			}
			if lastBody == "" {
				t.Skip("watch finished before the endpoint could be sampled")
			}
			t.Fatalf("watch finished without a complete snapshot; last body:\n%s", lastBody)
		default:
		}
		resp, err := http.Get(fmt.Sprintf("http://%s/debug/metrics", addr))
		if err != nil {
			time.Sleep(50 * time.Millisecond)
			continue
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		lastBody = string(body)
		if strings.Contains(lastBody, `"pipeline.stage.smooth.seconds"`) &&
			strings.Contains(lastBody, `"monitor.health.quarantined.nonfinite"`) &&
			strings.Contains(lastBody, `"monitor.stride.seconds"`) {
			var snap map[string]any
			if err := json.Unmarshal(body, &snap); err != nil {
				t.Fatalf("live snapshot invalid JSON: %v", err)
			}
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if err := <-done; err != nil {
		t.Fatalf("run -watch -metrics-addr: %v", err)
	}
}
