package store_test

import (
	"math"
	"math/rand"
	"path/filepath"
	"testing"
	"time"

	"phasebeat/internal/core"
	"phasebeat/internal/csisim"
	"phasebeat/internal/fleet"
	"phasebeat/internal/metrics"
	"phasebeat/internal/store"
	"phasebeat/internal/trace"
)

// recorder adapts the store to fleet.Recorder the same way phasebeatd
// does. It lives in the external test package: fleet deliberately does
// not import store, so the adapter is the integration seam under test.
type recorder struct{ st *store.Store }

func (r recorder) OpenSession(key string, sc fleet.SessionConfig) error {
	return r.st.OpenSession(key, store.Meta{
		SampleRate:     sc.SampleRate,
		NumAntennas:    sc.NumAntennas,
		NumSubcarriers: sc.NumSubcarriers,
		WindowSeconds:  sc.WindowSeconds,
		StrideSeconds:  sc.UpdateEverySeconds,
		Persons:        sc.Persons,
	})
}

func (r recorder) AppendPacket(key string, p trace.Packet) error {
	return r.st.AppendPacket(key, p)
}

func (r recorder) AppendUpdate(key string, u core.Update) error {
	return r.st.AppendUpdate(key, u)
}

func (r recorder) CloseSession(key string) error { return r.st.CloseSession(key) }

// TestHourSessionEndToEnd is the acceptance test for the tiered store:
// an hour-long simulated session recorded through the fleet tee must
//
//   - answer a full-range tier query from the downsample index alone
//     (zero sealed blocks decoded, counted by store.tier.hits),
//   - survive an abrupt kill (store and fleet abandoned, never closed)
//     with at most the unsealed tail lost — and, because the tail log
//     flushes per append, in practice with nothing lost, and
//   - replay through a fresh Monitor to the same final breathing
//     estimate the live daemon recorded, within 0.1 bpm.
func TestHourSessionEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("hour-scale end-to-end run")
	}
	const (
		key           = "e2e"
		rate          = 25.0
		subs          = 8
		windowSeconds = 8
		strideSeconds = 2
	)
	seconds := 3600
	if raceEnabled {
		// Race instrumentation multiplies the stride cost ~15×; ten
		// minutes exercises the same seal/tier/recovery cadence.
		seconds = 600
	}
	n := int(rate) * seconds
	dir := filepath.Join(t.TempDir(), "store")
	reg := metrics.NewRegistry()
	st, err := store.Open(store.Config{Dir: dir, BlockSeconds: 60, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}

	mgr, err := fleet.New(fleet.Config{
		Shards: 1,
		// Hold the whole feed so the drop-on-backlog monitor never sheds:
		// a lossless live run is what makes live-vs-replay comparable.
		SessionBuffer: n + 64,
		Monitor: core.MonitorConfig{
			Pipeline:           core.ConfigForRate(rate),
			Persons:            1,
			SampleRate:         rate,
			NumAntennas:        3,
			NumSubcarriers:     subs,
			WindowSeconds:      windowSeconds,
			UpdateEverySeconds: strideSeconds,
		},
		Recorder: recorder{st},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Cleanup (not part of the scenario): the abandoned manager and
	// store are released only after every assertion has run.
	defer st.Close()
	defer mgr.Close()

	if _, err := mgr.Open(key, fleet.SessionConfig{}); err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(7))
	env := csisim.Environment{
		CarrierHz:       csisim.DefaultCarrierHz,
		AntennaSpacingM: csisim.DefaultAntennaSpacingM,
		StaticPaths:     csisim.RandomStaticPaths(rng, 6, 3),
		TxRxDistanceM:   3,
	}
	pathDist := 4 + rng.Float64()*2
	person := csisim.RandomPerson(rng, pathDist, csisim.ReflectionGainForPath(pathDist, false))
	sim, err := csisim.New(csisim.Config{
		Env:         env,
		Persons:     []csisim.Person{person},
		SampleRate:  rate,
		NumAntennas: 3,
		Seed:        7,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The final stride closes at the last packet index a whole number of
	// strides past the first full window; its update carries that
	// packet's time.
	window, stride := int(windowSeconds*rate), int(strideSeconds*rate)
	finalIdx := window - 1 + (n-window)/stride*stride
	var lastT, finalT float64
	for i := 0; i < n; i++ {
		p := sim.NextPacket()
		rows := make([][]complex128, len(p.CSI))
		for a, row := range p.CSI {
			rows[a] = row[:subs:subs]
		}
		lastT = p.Time
		if i == finalIdx {
			finalT = p.Time
		}
		if err := mgr.Ingest(key, trace.Packet{Time: p.Time, CSI: rows}); err != nil {
			t.Fatalf("ingest packet %d: %v", i, err)
		}
	}

	deadline := time.Now().Add(3 * time.Minute)
	for mgr.Health().Accepted < uint64(n) {
		if time.Now().After(deadline) {
			t.Fatalf("monitor stalled: %+v", mgr.Health())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if d := mgr.Health().PacketsDropped; d != 0 {
		t.Fatalf("live session dropped %d packets despite full-feed buffer", d)
	}
	// The recorder sees updates on the session's drain goroutine; wait
	// until the final stride's estimate has landed in the tiers before
	// pulling the plug. The 1 s bin must hold the final stride's own
	// time: strides are 2 s apart, so no earlier stride shares its bin,
	// and a looser bound lets a slow (-race) recorder stop the wait one
	// stride early, comparing replay's final estimate with the live
	// penultimate one.
	for {
		res, err := st.Range(key, 0, math.Inf(1), "1s")
		if err == nil && len(res.Breathing) > 0 {
			if b := res.Breathing[len(res.Breathing)-1]; b.Start <= finalT && finalT < b.Start+1 {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("final live update never recorded (err=%v)", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	liveBPM, ok := st.LastBPM(key)
	if !ok {
		t.Fatal("no live breathing estimate recorded")
	}

	// KILL: reopen the directory in a second store without closing the
	// first — nothing was sealed or flushed on the way down beyond what
	// every append already persisted.
	reg2 := metrics.NewRegistry()
	st2, err := store.Open(store.Config{Dir: dir, ReadOnly: true, Metrics: reg2})
	if err != nil {
		t.Fatalf("recovery open: %v", err)
	}
	defer st2.Close()
	infos := st2.Sessions()
	if len(infos) != 1 || infos[0].Key != key {
		t.Fatalf("recovered sessions = %+v, want one %q", infos, key)
	}
	if got := infos[0].To; got != lastT {
		t.Fatalf("recovered span ends at %v, want %v (tail flushes per append)", got, lastT)
	}

	res, err := st2.Range(key, 0, math.Inf(1), "")
	if err != nil {
		t.Fatal(err)
	}
	if res.Tier != "60s" {
		t.Fatalf("full-range query picked tier %q, want 60s", res.Tier)
	}
	if res.BlocksRead != 0 {
		t.Fatalf("tier query decoded %d sealed blocks, want 0", res.BlocksRead)
	}
	if len(res.Wave) != seconds/60 {
		t.Fatalf("got %d 60s wave bins, want %d", len(res.Wave), seconds/60)
	}
	var pkts int
	for _, b := range res.Wave {
		pkts += int(b.Count)
	}
	if pkts != n {
		t.Fatalf("wave bins cover %d packets, want %d", pkts, n)
	}
	if len(res.Breathing) == 0 {
		t.Fatal("tier query returned no breathing history")
	}
	if hits := reg2.Counter("store.tier.hits.60s").Value(); hits != 1 {
		t.Fatalf("store.tier.hits.60s = %d, want 1", hits)
	}

	base := core.DefaultMonitorConfig()
	last, err := st2.ReplayThroughMonitor(key, base)
	if err != nil {
		t.Fatal(err)
	}
	if last.Result.Breathing == nil {
		t.Fatalf("replay's final update carries no breathing estimate: %+v", last)
	}
	if last.Time != finalT {
		t.Fatalf("replay's final update is at %v s, live's at %v s", last.Time, finalT)
	}
	if delta := math.Abs(last.Result.Breathing.RateBPM - liveBPM); delta > 0.1 {
		t.Fatalf("replay breathing %.3f bpm vs live %.3f bpm: |delta| %.3f > 0.1",
			last.Result.Breathing.RateBPM, liveBPM, delta)
	}
}
