package core

import (
	"math"
	"testing"
	"time"

	"phasebeat/internal/trace"
)

// quarantinePacket builds a structurally valid packet with finite CSI.
func quarantinePacket(tm float64, antennas, subcarriers int) trace.Packet {
	csi := make([][]complex128, antennas)
	for a := range csi {
		row := make([]complex128, subcarriers)
		for s := range row {
			row[s] = complex(1+float64(a), float64(s))
		}
		csi[a] = row
	}
	return trace.Packet{Time: tm, CSI: csi}
}

func quarantineEngine(t *testing.T, cfg MonitorConfig) *strideEngine {
	t.Helper()
	proc, err := NewProcessor(WithConfig(cfg.Pipeline), WithPersons(1))
	if err != nil {
		t.Fatal(err)
	}
	return cfg.newEngine(proc)
}

func TestStrideEngineQuarantineVerdicts(t *testing.T) {
	cfg := allocTestConfig()
	eng := quarantineEngine(t, cfg)
	dt := 1 / cfg.SampleRate

	good := quarantinePacket(0, cfg.NumAntennas, cfg.NumSubcarriers)
	if v, _ := eng.push(good); v != pushAccepted {
		t.Fatalf("clean packet: verdict %v, want accepted", v)
	}

	cases := []struct {
		name string
		pkt  trace.Packet
		want pushVerdict
	}{
		{"missing antenna", quarantinePacket(dt, cfg.NumAntennas-1, cfg.NumSubcarriers), pushMalformed},
		{"extra antenna", quarantinePacket(dt, cfg.NumAntennas+1, cfg.NumSubcarriers), pushMalformed},
		{"short row", quarantinePacket(dt, cfg.NumAntennas, cfg.NumSubcarriers/2), pushMalformed},
		{"empty", trace.Packet{Time: dt}, pushMalformed},
		{"backwards time", quarantinePacket(-dt, cfg.NumAntennas, cfg.NumSubcarriers), pushNonMonotonic},
	}
	nan := quarantinePacket(dt, cfg.NumAntennas, cfg.NumSubcarriers)
	nan.CSI[1][3] = complex(math.NaN(), 0)
	cases = append(cases, struct {
		name string
		pkt  trace.Packet
		want pushVerdict
	}{"NaN cell", nan, pushNonFinite})
	inf := quarantinePacket(dt, cfg.NumAntennas, cfg.NumSubcarriers)
	inf.CSI[2][7] = complex(0, math.Inf(1))
	cases = append(cases, struct {
		name string
		pkt  trace.Packet
		want pushVerdict
	}{"Inf cell", inf, pushNonFinite})

	for _, tc := range cases {
		if v, reset := eng.push(tc.pkt); v != tc.want || reset {
			t.Errorf("%s: verdict %v (reset %v), want %v", tc.name, v, reset, tc.want)
		}
	}

	// A quarantined packet must not advance the clock: the next clean
	// packet at dt is still accepted.
	if v, _ := eng.push(quarantinePacket(dt, cfg.NumAntennas, cfg.NumSubcarriers)); v != pushAccepted {
		t.Fatalf("clean packet after quarantines: verdict %v, want accepted", v)
	}
	// Equal timestamps are tolerated, matching Trace.Validate.
	if v, _ := eng.push(quarantinePacket(dt, cfg.NumAntennas, cfg.NumSubcarriers)); v != pushAccepted {
		t.Fatalf("equal timestamp: not accepted")
	}
}

func TestStrideEngineGapReset(t *testing.T) {
	cfg := allocTestConfig() // 50 Hz → default gap threshold 1 s
	eng := quarantineEngine(t, cfg)
	dt := 1 / cfg.SampleRate

	for i := 0; i < 10; i++ {
		if v, reset := eng.push(quarantinePacket(float64(i)*dt, cfg.NumAntennas, cfg.NumSubcarriers)); v != pushAccepted || reset {
			t.Fatalf("packet %d: verdict %v, reset %v", i, v, reset)
		}
	}
	if eng.pos != 10 {
		t.Fatalf("engine holds %d packets, want 10", eng.pos)
	}
	// Jump 2 s into the future: beyond the 1 s threshold, the window must
	// re-anchor on the new packet instead of splicing across the outage.
	v, reset := eng.push(quarantinePacket(2, cfg.NumAntennas, cfg.NumSubcarriers))
	if v != pushAccepted || !reset {
		t.Fatalf("gap packet: verdict %v, reset %v; want accepted with reset", v, reset)
	}
	if eng.pos != 1 {
		t.Fatalf("after reset engine holds %d packets, want 1", eng.pos)
	}
	// A gap just under the threshold splices normally.
	if v, reset := eng.push(quarantinePacket(2.9, cfg.NumAntennas, cfg.NumSubcarriers)); v != pushAccepted || reset {
		t.Fatalf("sub-threshold gap: verdict %v, reset %v; want accepted without reset", v, reset)
	}
}

// TestStrideEngineMaxGapConfig pins the gap threshold the engine derives
// from MonitorConfig.SampleRate: one second, but never fewer than twenty
// packet intervals at very low rates.
func TestStrideEngineMaxGapConfig(t *testing.T) {
	cfg := allocTestConfig()
	cfg.SampleRate = 10 // twenty packet intervals = 2 s
	cfg.Pipeline = ConfigForRate(10)
	eng := quarantineEngine(t, cfg)
	eng.push(quarantinePacket(0, cfg.NumAntennas, cfg.NumSubcarriers))
	if _, reset := eng.push(quarantinePacket(1.9, cfg.NumAntennas, cfg.NumSubcarriers)); reset {
		t.Fatal("1.9 s gap under the 2 s threshold at 10 Hz reset the window")
	}
	if _, reset := eng.push(quarantinePacket(4, cfg.NumAntennas, cfg.NumSubcarriers)); !reset {
		t.Fatal("2.1 s gap above the 2 s threshold at 10 Hz did not reset")
	}

	if got := maxGapSeconds(400); got != 1 {
		t.Fatalf("gap threshold at 400 Hz = %v, want 1", got)
	}
	if got := maxGapSeconds(10); got != 2 {
		t.Fatalf("gap threshold at 10 Hz = %v, want 2 (twenty intervals)", got)
	}
}

// TestMonitorQuarantineCounters feeds a live Monitor a stream salted with
// one packet of each rejectable kind and checks the per-cause accounting.
func TestMonitorQuarantineCounters(t *testing.T) {
	cfg := allocTestConfig()
	m, err := NewMonitor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	dt := 1 / cfg.SampleRate
	var sent uint64
	send := func(p trace.Packet) {
		t.Helper()
		if !m.Ingest(p) {
			t.Fatal("Ingest refused")
		}
		sent++
	}
	for i := 0; i < 20; i++ {
		send(quarantinePacket(float64(i)*dt, cfg.NumAntennas, cfg.NumSubcarriers))
	}
	send(quarantinePacket(5*dt, cfg.NumAntennas, cfg.NumSubcarriers))    // backwards
	send(quarantinePacket(20*dt, cfg.NumAntennas-1, cfg.NumSubcarriers)) // malformed
	bad := quarantinePacket(20*dt, cfg.NumAntennas, cfg.NumSubcarriers)
	bad.CSI[0][0] = complex(math.NaN(), 0)
	send(bad) // non-finite
	for i := 20; i < 30; i++ {
		send(quarantinePacket(float64(i)*dt, cfg.NumAntennas, cfg.NumSubcarriers))
	}

	deadline := time.Now().Add(10 * time.Second)
	var h Health
	for {
		h = m.Health()
		if h.Accepted+h.Quarantined() == sent {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("accounted %d of %d packets: %+v", h.Accepted+h.Quarantined(), sent, h)
		}
		time.Sleep(time.Millisecond)
	}
	if h.QuarantinedNonMonotonic != 1 || h.QuarantinedMalformed != 1 || h.QuarantinedNonFinite != 1 {
		t.Fatalf("quarantine counts = %+v, want one of each cause", h)
	}
	if h.Accepted != sent-3 {
		t.Fatalf("accepted %d, want %d", h.Accepted, sent-3)
	}
	if !h.Degraded() {
		t.Fatal("health with quarantines not reported degraded")
	}
	m.Close()
	if got := m.Health(); got != h {
		t.Fatalf("health changed across Close: %+v vs %+v", got, h)
	}
}

// TestMonitorDeliverReplacesStale calls deliver directly against a full
// update channel with no consumer, making the replacement accounting
// deterministic.
func TestMonitorDeliverReplacesStale(t *testing.T) {
	m := &Monitor{
		cfg:     MonitorConfig{DropOnBacklog: true},
		updates: make(chan Update, 1),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	if !m.deliver(&Update{Time: 1}) {
		t.Fatal("first deliver failed")
	}
	if !m.deliver(&Update{Time: 2}) {
		t.Fatal("second deliver failed")
	}
	if got := m.Health().UpdatesReplaced; got != 1 {
		t.Fatalf("UpdatesReplaced = %d, want 1", got)
	}
	u := <-m.updates
	if u.Time != 2 {
		t.Fatalf("channel kept update at t=%v, want the newer t=2", u.Time)
	}
	// The surviving update's own health must account for the eviction.
	if u.Health.UpdatesReplaced != 1 {
		t.Fatalf("surviving update reports %d replacements, want 1", u.Health.UpdatesReplaced)
	}
}

func TestHealthSubAndString(t *testing.T) {
	a := Health{Accepted: 100, QuarantinedNonFinite: 3, GapResets: 1}
	b := Health{Accepted: 250, QuarantinedNonFinite: 5, GapResets: 1, PacketsDropped: 2}
	d := b.Sub(a)
	if d.Accepted != 150 || d.QuarantinedNonFinite != 2 || d.GapResets != 0 || d.PacketsDropped != 2 {
		t.Fatalf("Sub = %+v", d)
	}
	if !d.Degraded() {
		t.Fatal("delta with drops not degraded")
	}
	if (Health{Accepted: 7}).Degraded() {
		t.Fatal("clean health reported degraded")
	}
	if s := (Health{Accepted: 7}).String(); s != "ok" {
		t.Fatalf("clean String() = %q, want \"ok\"", s)
	}
	if s := d.String(); s == "ok" || s == "" {
		t.Fatalf("degraded String() = %q", s)
	}
}
