package core

import (
	"math"
	"strings"
	"testing"
	"time"

	"phasebeat/internal/csisim"
)

func TestMonitorValidation(t *testing.T) {
	bad := DefaultMonitorConfig()
	bad.SampleRate = 0
	if _, err := NewMonitor(bad); err == nil {
		t.Error("want error for zero rate")
	}
	bad = DefaultMonitorConfig()
	bad.NumAntennas = 1
	if _, err := NewMonitor(bad); err == nil {
		t.Error("want error for one antenna")
	}
	bad = DefaultMonitorConfig()
	bad.WindowSeconds = 0
	if _, err := NewMonitor(bad); err == nil {
		t.Error("want error for zero window")
	}
	bad = DefaultMonitorConfig()
	bad.NumSubcarriers = 0
	if _, err := NewMonitor(bad); err == nil {
		t.Error("want error for zero subcarriers")
	}
	bad = DefaultMonitorConfig()
	bad.Pipeline.EnvWindow = 1
	if _, err := NewMonitor(bad); err == nil {
		t.Error("want error for bad pipeline config")
	}
	// A one-packet stride makes one exact-sum block per packet: 24 000
	// blocks × 30 subcarriers × 1 152 B is past the session bound.
	bad = DefaultMonitorConfig()
	bad.UpdateEverySeconds = 1 / bad.SampleRate
	if _, err := NewMonitor(bad); err == nil || !strings.Contains(err.Error(), "exact-sum blocks") {
		t.Errorf("one-packet stride: err = %v, want the exact-sum block bound", err)
	}
	bad = DefaultMonitorConfig()
	bad.UpdateEverySeconds = 1e300
	if _, err := NewMonitor(bad); err == nil || !strings.Contains(err.Error(), "stride 1e+300s × 400 Hz exceeds") {
		t.Errorf("1e300 s stride: err = %v, want the stride bound", err)
	}
	// Every window/stride shape the repository runs stays accepted.
	for _, shape := range []struct {
		rate, window, stride float64
		subcarriers          int
	}{
		{400, 60, 5, 30}, {30, 8, 2, 16}, {400, 4, 1, 30},
		{400, 40, 10, 30}, {400, 45, 15, 30}, {100, 30, 30, 30},
	} {
		cfg := DefaultMonitorConfig()
		cfg.SampleRate, cfg.NumSubcarriers = shape.rate, shape.subcarriers
		cfg.WindowSeconds, cfg.UpdateEverySeconds = shape.window, shape.stride
		m, err := NewMonitor(cfg)
		if err != nil {
			t.Errorf("%v Hz %v s / %v s refused: %v", shape.rate, shape.window, shape.stride, err)
			continue
		}
		m.Close()
	}
}

// TestMonitorRejectsOversizedWindow pins the synchronous window bound:
// window storage is allocated on the worker goroutine, so a window whose
// samples × subcarriers overflow an int or would take gigabytes must be
// refused by NewMonitor itself, never reach the allocator.
func TestMonitorRejectsOversizedWindow(t *testing.T) {
	cases := []struct {
		name         string
		rate, window float64
		subcarriers  int
	}{
		{"makeslice overflow", 400, 1e12, 30},
		{"int conversion wrap", 400, 1e300, 30},
		{"hundreds of GB", 400, 1e6, 30},
		{"infinite rate", math.Inf(1), 60, 30},
		{"NaN window", 400, math.NaN(), 30},
		{"one cell over", 1, maxWindowCells + 1, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultMonitorConfig()
			cfg.SampleRate = tc.rate
			cfg.WindowSeconds = tc.window
			cfg.NumSubcarriers = tc.subcarriers
			m, err := NewMonitor(cfg)
			if err == nil {
				m.Close()
				t.Fatal("oversized window accepted")
			}
		})
	}
}

func TestMonitorStreamsEstimates(t *testing.T) {
	sim, err := csisim.FixedRatesScenario([]float64{18}, 33)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultMonitorConfig()
	cfg.WindowSeconds = 40
	cfg.UpdateEverySeconds = 10
	m, err := NewMonitor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	// Feed 55 s of packets; expect ≥ 2 updates (at 40 s and 50 s).
	total := int(55 * cfg.SampleRate)
	var updates []Update
	collect := make(chan struct{})
	go func() {
		defer close(collect)
		for u := range m.Updates() {
			updates = append(updates, u)
			if len(updates) >= 2 {
				return
			}
		}
	}()
	for i := 0; i < total; i++ {
		if !m.Ingest(sim.NextPacket()) {
			t.Fatal("Ingest refused while running")
		}
	}
	select {
	case <-collect:
	case <-time.After(30 * time.Second):
		t.Fatal("timed out waiting for updates")
	}
	if len(updates) < 2 {
		t.Fatalf("got %d updates, want >= 2", len(updates))
	}
	for i, u := range updates {
		if u.Err != nil {
			t.Fatalf("update %d error: %v", i, u.Err)
		}
		if u.Result == nil || u.Result.Breathing == nil {
			t.Fatalf("update %d missing breathing estimate", i)
		}
		if math.Abs(u.Result.Breathing.RateBPM-18) > 1.5 {
			t.Errorf("update %d breathing = %.2f, want ~18", i, u.Result.Breathing.RateBPM)
		}
	}
}

func TestMonitorCloseIsIdempotentAndStopsIngest(t *testing.T) {
	m, err := NewMonitor(DefaultMonitorConfig())
	if err != nil {
		t.Fatal(err)
	}
	m.Close()
	m.Close() // must not panic
	sim, err := csisim.FixedRatesScenario([]float64{15}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if m.Ingest(sim.NextPacket()) {
		t.Error("Ingest should refuse after Close")
	}
	// Updates channel must be closed.
	if _, ok := <-m.Updates(); ok {
		t.Error("updates channel should be closed")
	}
}

// drainFor reads m's updates for at most d, returning those received.
func drainFor(m *Monitor, d time.Duration) []Update {
	timer := time.NewTimer(d)
	defer timer.Stop()
	var out []Update
	for {
		select {
		case u, ok := <-m.Updates():
			if !ok {
				return out
			}
			out = append(out, u)
		case <-timer.C:
			return out
		}
	}
}

func TestMonitorDrainFor(t *testing.T) {
	m, err := NewMonitor(DefaultMonitorConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	got := drainFor(m, 50*time.Millisecond)
	if len(got) != 0 {
		t.Errorf("expected no updates, got %d", len(got))
	}
}
