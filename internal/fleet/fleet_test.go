package fleet

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"phasebeat/internal/core"
	"phasebeat/internal/metrics"
	"phasebeat/internal/trace"
)

// testHarnessConfig is the shared small-scene shape: 30 Hz, 4 s window,
// 1 s stride, so the first update arrives after 5 virtual seconds.
func testHarnessConfig() HarnessConfig {
	return HarnessConfig{
		SampleRate:    30,
		Seconds:       8,
		WindowSeconds: 4,
		StrideSeconds: 1,
		Antennas:      3,
		Subcarriers:   16,
		Seed:          7,
	}
}

// testManager builds a Manager matching testHarnessConfig's stream shape.
func testManager(t testing.TB, shards int, reg *metrics.Registry) *Manager {
	t.Helper()
	mgr, err := New(testConfig(shards, reg))
	if err != nil {
		t.Fatal(err)
	}
	return mgr
}

// testConfig is testManager's fleet configuration.
func testConfig(shards int, reg *metrics.Registry) Config {
	hc := testHarnessConfig()
	return Config{
		Shards:        shards,
		SessionBuffer: 1024, // hold a whole test stream: no shedding, exact accounting
		Metrics:       reg,
		Monitor: core.MonitorConfig{
			Pipeline:           core.ConfigForRate(hc.SampleRate),
			Persons:            1,
			SampleRate:         hc.SampleRate,
			NumAntennas:        hc.Antennas,
			NumSubcarriers:     hc.Subcarriers,
			WindowSeconds:      hc.WindowSeconds,
			UpdateEverySeconds: hc.StrideSeconds,
		},
	}
}

// feedAll routes every template packet to key and waits for the session
// to finish processing them (exact accounting needs a drained queue).
func feedAll(t testing.TB, mgr *Manager, key string, pkts []trace.Packet) {
	t.Helper()
	s, ok := mgr.Get(key)
	if !ok {
		t.Fatalf("no session %q", key)
	}
	sent := uint64(0)
	for _, p := range pkts {
		if err := mgr.Ingest(key, p); err != nil {
			t.Fatal(err)
		}
		sent++
		// Keep at most half the session buffer in flight so the session
		// never sheds: quarantine accounting stays exact.
		for sent > 8 && processedCount(s.Health()) < sent-8 {
			time.Sleep(50 * time.Microsecond)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for processedCount(s.Health()) < sent {
		if time.Now().After(deadline) {
			t.Fatalf("session %q stalled: %+v", key, s.Health())
		}
		time.Sleep(time.Millisecond)
	}
}

func processedCount(h core.Health) uint64 {
	return h.Accepted + h.PacketsDropped + h.Quarantined()
}

func TestManagerSessionLifecycle(t *testing.T) {
	reg := metrics.NewRegistry()
	mgr := testManager(t, 2, reg)
	defer mgr.Close()
	pkts, err := templatePackets(testHarnessConfig())
	if err != nil {
		t.Fatal(err)
	}

	if _, err := mgr.Open("alpha", SessionConfig{}); err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Open("beta", SessionConfig{}); err != nil {
		t.Fatal(err)
	}
	if n := mgr.SessionCount(); n != 2 {
		t.Fatalf("SessionCount = %d, want 2", n)
	}
	if _, err := mgr.Open("alpha", SessionConfig{}); !errors.Is(err, ErrDuplicateSession) {
		t.Fatalf("duplicate open: err = %v", err)
	}

	feedAll(t, mgr, "alpha", pkts)
	s, _ := mgr.Get("alpha")
	snap, ok := s.Wait(0, 10*time.Second)
	if !ok {
		t.Fatalf("no update after %d packets: %+v", len(pkts), s.Health())
	}
	if snap.Seq == 0 || snap.Update.Result == nil {
		t.Fatalf("empty snapshot: %+v", snap)
	}
	// Drain to the head: strides for the buffered stream may still be
	// arriving. Each Wait must strictly advance the cursor, and once no
	// newer update exists, a Wait at the head times out rather than
	// repeating a stale snapshot.
	for {
		next, ok := s.Wait(snap.Seq, 200*time.Millisecond)
		if !ok {
			break
		}
		if next.Seq <= snap.Seq {
			t.Fatalf("Wait went backwards: %d then %d", snap.Seq, next.Seq)
		}
		snap = next
	}
	if _, ok := s.Wait(snap.Seq, 50*time.Millisecond); ok {
		t.Fatal("Wait returned a snapshot no newer than the head cursor")
	}
	if again, ok := s.Latest(); !ok || again.Seq != snap.Seq {
		t.Fatalf("Latest disagrees with the drained head: %+v vs %+v", again, snap)
	}

	h, err := mgr.CloseSession("alpha")
	if err != nil {
		t.Fatal(err)
	}
	if h.Accepted != uint64(len(pkts)) {
		t.Fatalf("final health Accepted = %d, want %d", h.Accepted, len(pkts))
	}
	if _, err := mgr.CloseSession("alpha"); !errors.Is(err, ErrUnknownSession) {
		t.Fatalf("double close: err = %v", err)
	}

	// The aggregate keeps closed sessions: fleet counters are monotonic
	// across churn.
	if agg := mgr.Health(); agg.Accepted < uint64(len(pkts)) {
		t.Fatalf("aggregate lost the closed session: %+v", agg)
	}
	if mgr.Updates() < snap.Seq {
		t.Fatalf("Updates = %d < closed session's %d", mgr.Updates(), snap.Seq)
	}

	// Routing a packet at a closed key is counted, not fatal.
	if err := mgr.Ingest("alpha", pkts[0]); err != nil {
		t.Fatal(err)
	}
	snapshot := reg.Snapshot()
	waitFor(t, func() bool { return gaugeValue(t, reg, "fleet.unrouted") >= 1 })
	if v := gaugeValue(t, reg, "fleet.sessions"); v != 1 {
		t.Fatalf("fleet.sessions = %v, want 1 (beta): %v", v, snapshot)
	}
	if v := gaugeValue(t, reg, "fleet.sessions.opened"); v != 2 {
		t.Fatalf("fleet.sessions.opened = %v, want 2", v)
	}
	// The open session's window slabs are out of the shard arenas, and
	// the per-shard bytes gauges add up to the manager's total.
	shardBytes := func() float64 {
		return gaugeValue(t, reg, "fleet.shard.0.arena.bytes") + gaugeValue(t, reg, "fleet.shard.1.arena.bytes")
	}
	waitFor(t, func() bool { return mgr.ArenaStats().Bytes > 0 })
	if b, g := mgr.ArenaStats().Bytes, shardBytes(); float64(b) != g {
		t.Fatalf("ArenaStats().Bytes = %d, shard gauges sum to %v", b, g)
	}

	mgr.Close()
	if b, g := mgr.ArenaStats().Bytes, shardBytes(); b != 0 || g != 0 {
		t.Fatalf("closed fleet still holds arena bytes: stats %d, gauges %v", b, g)
	}
	if _, err := mgr.Open("gamma", SessionConfig{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("open after close: err = %v", err)
	}
	if err := mgr.Ingest("beta", pkts[0]); !errors.Is(err, ErrClosed) {
		t.Fatalf("ingest after close: err = %v", err)
	}
}

// failingRecorder is an archive on a full or failing disk: every call
// fails, and each kind of call is counted.
type failingRecorder struct {
	opens, packets, updates, closes atomic.Uint64
}

func (r *failingRecorder) OpenSession(string, SessionConfig) error {
	r.opens.Add(1)
	return syscall.ENOSPC
}

func (r *failingRecorder) AppendPacket(string, trace.Packet) error {
	r.packets.Add(1)
	return syscall.ENOSPC
}

func (r *failingRecorder) AppendUpdate(string, core.Update) error {
	r.updates.Add(1)
	return syscall.EIO
}

func (r *failingRecorder) CloseSession(string) error {
	r.closes.Add(1)
	return syscall.EIO
}

// TestRecorderFailuresAreCountedNotFatal pins the best-effort archive
// contract: when every Recorder call fails (ENOSPC, EIO), the session
// still publishes its updates to Wait, and fleet.record.errors equals the
// exact number of failed calls.
func TestRecorderFailuresAreCountedNotFatal(t *testing.T) {
	reg := metrics.NewRegistry()
	rec := &failingRecorder{}
	cfg := testConfig(1, reg)
	cfg.Recorder = rec
	mgr, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	pkts, err := templatePackets(testHarnessConfig())
	if err != nil {
		t.Fatal(err)
	}

	if _, err := mgr.Open("disk", SessionConfig{}); err != nil {
		t.Fatalf("open with a failing recorder: %v", err)
	}
	feedAll(t, mgr, "disk", pkts)
	s, _ := mgr.Get("disk")
	snap, ok := s.Wait(0, 10*time.Second)
	if !ok || snap.Update.Result == nil {
		t.Fatalf("no update published with a failing recorder: %+v, ok %v", snap, ok)
	}
	h, err := mgr.CloseSession("disk")
	if err != nil {
		t.Fatal(err)
	}
	if h.Accepted != uint64(len(pkts)) {
		t.Fatalf("final health Accepted = %d, want %d", h.Accepted, len(pkts))
	}
	final, _ := s.Latest()
	if final.Seq < 2 {
		t.Fatalf("session published %d updates, want a stream of them", final.Seq)
	}

	// CloseSession returns after the recorder's last call: counts are final.
	for _, c := range []struct {
		name      string
		got, want uint64
	}{
		{"OpenSession", rec.opens.Load(), 1},
		{"AppendPacket", rec.packets.Load(), uint64(len(pkts))},
		{"AppendUpdate", rec.updates.Load(), final.Seq},
		{"CloseSession", rec.closes.Load(), 1},
	} {
		if c.got != c.want {
			t.Errorf("%s calls = %d, want %d", c.name, c.got, c.want)
		}
	}
	want := 1 + uint64(len(pkts)) + final.Seq + 1
	if v := gaugeValue(t, reg, "fleet.record.errors"); v != float64(want) {
		t.Fatalf("fleet.record.errors = %v, want %d failed calls", v, want)
	}
}

func waitFor(t testing.TB, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in 5s")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func gaugeValue(t testing.TB, reg *metrics.Registry, name string) float64 {
	t.Helper()
	v, ok := reg.Snapshot()[name]
	if !ok {
		t.Fatalf("metric %q not registered", name)
	}
	f, ok := v.(float64)
	if !ok {
		t.Fatalf("metric %q is %T, want float64", name, v)
	}
	return f
}

// TestSharedArenaChurnStress is the daemon-scale churn test the fleet
// design hangs on: many goroutines open/ingest/close sessions in parallel
// against ONE shard (one shared arena), with deterministic malformed
// packets mixed in. It asserts per-session Health accounting stays exact
// under churn, the arena recycles window slabs across session lifetimes,
// and no Update aliases arena memory (a captured Result is bit-identical
// after later sessions have reused the pool). Run it under -race.
func TestSharedArenaChurnStress(t *testing.T) {
	hc := testHarnessConfig()
	pkts, err := templatePackets(hc)
	if err != nil {
		t.Fatal(err)
	}
	malformed := trace.NewPacket(0, 2, 4) // wrong shape for every config

	mgr := testManager(t, 1, nil) // one shard → one arena under contention
	defer mgr.Close()

	const (
		workers = 6
		rounds  = 3
	)
	if testing.Short() {
		t.Skip("daemon-scale churn stress")
	}

	type capturedUpdate struct {
		res       *core.Result
		calibRow  []float64 // deep copy of Calibrated[0] at capture time
		breathing float64
		hasBreath bool
		key       string
	}
	var (
		mu       sync.Mutex
		captures []capturedUpdate
	)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				key := fmt.Sprintf("stress-%d-%d", w, r)
				s, err := mgr.Open(key, SessionConfig{})
				if err != nil {
					t.Error(err)
					return
				}
				clean, bad := uint64(0), uint64(0)
				sent := uint64(0)
				for i, p := range pkts {
					if i%50 == 49 {
						// One malformed packet per fifty: it must reach
						// the session's quarantine, not vanish.
						if err := mgr.Ingest(key, malformed); err != nil {
							t.Error(err)
							return
						}
						bad++
						sent++
					}
					if err := mgr.Ingest(key, p); err != nil {
						t.Error(err)
						return
					}
					clean++
					sent++
					for sent > 8 && processedCount(s.Health()) < sent-8 {
						time.Sleep(50 * time.Microsecond)
					}
				}
				deadline := time.Now().Add(10 * time.Second)
				for processedCount(s.Health()) < sent {
					if time.Now().After(deadline) {
						t.Errorf("session %s stalled: %+v", key, s.Health())
						return
					}
					time.Sleep(time.Millisecond)
				}

				h := s.Health()
				// Exact per-session accounting under churn: the feeder
				// paced itself below the buffer, so nothing was shed and
				// every malformed packet is accounted for by cause.
				if h.PacketsDropped != 0 {
					t.Errorf("%s: %d packets shed despite paced feed", key, h.PacketsDropped)
				}
				if h.Accepted != clean || h.QuarantinedMalformed != bad {
					t.Errorf("%s: accepted %d/%d, quarantined-malformed %d/%d",
						key, h.Accepted, clean, h.QuarantinedMalformed, bad)
				}
				if snap, ok := s.Latest(); ok && snap.Update.Result != nil {
					cu := capturedUpdate{res: snap.Update.Result, key: key}
					if c := snap.Update.Result.Calibrated; len(c) > 0 && len(c[0]) > 0 {
						cu.calibRow = append([]float64(nil), c[0]...)
					}
					if b := snap.Update.Result.Breathing; b != nil {
						cu.hasBreath = true
						cu.breathing = b.RateBPM
					}
					mu.Lock()
					captures = append(captures, cu)
					mu.Unlock()
				}
				if _, err := mgr.CloseSession(key); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	st := mgr.ArenaStats()
	if st.Allocs == 0 {
		t.Fatal("sessions allocated nothing from the shard arena")
	}
	if st.Reuses == 0 {
		t.Fatalf("session churn reused no slabs: %+v", st)
	}

	// Updates must not alias arena memory: every captured Result is
	// bit-identical even though later sessions recycled the pool many
	// times over.
	if len(captures) == 0 {
		t.Fatal("no session produced an update to capture")
	}
	for _, c := range captures {
		if c.calibRow != nil {
			for i, v := range c.calibRow {
				if c.res.Calibrated[0][i] != v {
					t.Fatalf("%s: Calibrated[0][%d] changed from %v to %v after churn — Update aliases arena memory",
						c.key, i, v, c.res.Calibrated[0][i])
				}
			}
		}
		if c.hasBreath && c.res.Breathing.RateBPM != c.breathing {
			t.Fatalf("%s: breathing estimate changed from %v to %v after churn",
				c.key, c.breathing, c.res.Breathing.RateBPM)
		}
	}

	// All sessions closed: the aggregate is exactly the per-session sums.
	agg := mgr.Health()
	wantBad := uint64(workers * rounds * (len(pkts) / 50))
	wantClean := uint64(workers * rounds * len(pkts))
	if agg.Accepted != wantClean || agg.QuarantinedMalformed != wantBad {
		t.Fatalf("aggregate accepted %d/%d, quarantined %d/%d",
			agg.Accepted, wantClean, agg.QuarantinedMalformed, wantBad)
	}
}

// countingObserver counts live stage callbacks.
type countingObserver struct{ ends atomic.Uint64 }

func (o *countingObserver) OnStageStart(string)        {}
func (o *countingObserver) OnStageEnd(core.StageStats) { o.ends.Add(1) }

// TestOpenWithSampleRateKeepsTemplatePipeline: a session that states its
// sample rate re-derives only the rate-scaled windows; the template's
// estimator and observer survive.
func TestOpenWithSampleRateKeepsTemplatePipeline(t *testing.T) {
	hc := HarnessConfig{SampleRate: 400, Seconds: 24, WindowSeconds: 20, StrideSeconds: 2,
		Antennas: 3, Subcarriers: 16, Seed: 7}
	pkts, err := templatePackets(hc)
	if err != nil {
		t.Fatal(err)
	}
	obs := &countingObserver{}
	mc := core.DefaultMonitorConfig()
	mc.NumSubcarriers = hc.Subcarriers
	mc.WindowSeconds = hc.WindowSeconds
	mc.UpdateEverySeconds = hc.StrideSeconds
	mc.Pipeline.Estimator = "esprit"
	mc.Pipeline.Observer = obs
	mgr, err := New(Config{Shards: 1, SessionBuffer: 1024, Monitor: mc})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	s, err := mgr.Open("esprit", SessionConfig{SampleRate: 400})
	if err != nil {
		t.Fatal(err)
	}
	feedAll(t, mgr, "esprit", pkts)
	snap, ok := s.Wait(0, 10*time.Second)
	if !ok {
		t.Fatalf("no update: %+v", s.Health())
	}
	if obs.ends.Load() == 0 {
		t.Fatal("template observer never called")
	}
	res := snap.Update.Result
	if res == nil {
		t.Fatalf("update carries no result (err %v)", snap.Update.Err)
	}
	var method string
	switch {
	case res.Breathing != nil:
		method = res.Breathing.Method
	case res.MultiPerson != nil:
		method = res.MultiPerson.Method
	}
	if method != "esprit" {
		t.Fatalf("estimate method %q (err %v), want esprit from the template", method, snap.Update.Err)
	}
}
