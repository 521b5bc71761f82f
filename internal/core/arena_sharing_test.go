package core

import (
	"math/bits"
	"testing"

	"phasebeat/internal/arena"
	"phasebeat/internal/trace"
)

// TestMonitorSharedArenaReuse is the fleet-daemon contract end to end: a
// monitor with a shared arena carves its window storage from the pool,
// returns it on Close, and the next session reuses the slabs instead of
// allocating fresh ones.
func TestMonitorSharedArenaReuse(t *testing.T) {
	ar := arena.New()
	cfg := allocTestConfig()
	cfg.Arena = ar

	runSession := func(seed int64) {
		t.Helper()
		m, err := NewMonitor(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sim := newFixedSim(t, cfg.SampleRate, 14, seed)
		done := make(chan struct{})
		go func() {
			defer close(done)
			for range m.Updates() {
			}
		}()
		for i := 0; i < int(9*cfg.SampleRate); i++ {
			if !m.Ingest(sim.NextPacket()) {
				t.Error("Ingest refused")
				break
			}
		}
		m.Close()
		<-done
	}

	runSession(4)
	first := ar.Stats()
	if first.Allocs == 0 {
		t.Fatal("first session allocated nothing from the shared arena")
	}

	runSession(5)
	second := ar.Stats()
	if second.Reuses <= first.Reuses {
		t.Fatalf("second session reused no slabs: stats %+v then %+v", first, second)
	}
	// Steady-state churn: slab demand is satisfied by the pool, so fresh
	// arena allocations stop growing once the pool is warm.
	for s := int64(6); s < 9; s++ {
		runSession(s)
	}
	final := ar.Stats()
	if final.Allocs > second.Allocs {
		t.Fatalf("session churn kept allocating fresh slabs: stats %+v then %+v", second, final)
	}
}

// TestProcessorWithArenaReuse covers the batch side: repeated Process
// calls on a WithArena processor recycle the phase-difference and
// smoothed matrices, and the results carry no aliases into the pool —
// Calibrated data from run 1 is intact after run 2 overwrites the
// recycled intermediates.
func TestProcessorWithArenaReuse(t *testing.T) {
	ar := arena.New()
	proc, err := NewProcessor(WithConfig(ConfigForRate(50)), WithArena(ar))
	if err != nil {
		t.Fatal(err)
	}
	sim := newFixedSim(t, 50, 14, 4)
	tr, err := sim.Generate(20)
	if err != nil {
		t.Fatal(err)
	}

	res1, err := proc.Process(tr)
	if err != nil {
		t.Fatal(err)
	}
	after1 := ar.Stats()
	if after1.Allocs == 0 {
		t.Fatal("Process allocated nothing from the arena")
	}
	snapshot := append([]float64(nil), res1.Calibrated[0]...)

	res2, err := proc.Process(tr)
	if err != nil {
		t.Fatal(err)
	}
	after2 := ar.Stats()
	if after2.Reuses <= after1.Reuses {
		t.Fatalf("second Process reused no slabs: stats %+v then %+v", after1, after2)
	}
	for i, v := range snapshot {
		if res1.Calibrated[0][i] != v {
			t.Fatalf("run 1 Calibrated changed at %d after run 2: %v != %v — Result aliases pooled storage", i, res1.Calibrated[0][i], v)
		}
	}
	// Determinism across pooled runs: same trace, same output.
	if res2.Breathing == nil || res1.Breathing == nil || res1.Breathing.RateBPM != res2.Breathing.RateBPM {
		t.Fatalf("pooled reruns disagree: %+v vs %+v", res1.Breathing, res2.Breathing)
	}
}

// TestMonitorWindowBytes pins the size of a paper-rate session's window
// storage: a DefaultMonitorConfig Monitor takes exactly its one ring plane
// plus one smoothed matrix, 8 · 2 · 30 · 24 000 bytes, from the arena, with
// no slab rounded up past its payload — and hands all of it back on Close.
// The exact block sums beside them (12 blocks of 5 s × 30 subcarriers × 4
// sums) are the rest of windowBytes.
func TestMonitorWindowBytes(t *testing.T) {
	ar := arena.New()
	cfg := DefaultMonitorConfig()
	cfg.Arena = ar
	m, err := NewMonitor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sim := newFixedSim(t, cfg.SampleRate, 14, 3)
	window, stride := windowGeometry(&cfg)
	for i := 0; i < window; i++ {
		if !m.Ingest(sim.NextPacket()) {
			t.Fatal("Ingest refused")
		}
	}
	<-m.Updates()
	want := int64(8 * 2 * cfg.NumSubcarriers * window)
	if want != 11_520_000 {
		t.Fatalf("paper-rate arena payload = %d bytes, want 11 520 000", want)
	}
	if got := ar.Stats().Bytes; got != want {
		t.Fatalf("live session holds %d arena bytes, want exactly %d", got, want)
	}
	if got := windowBytes(window, stride, cfg.NumSubcarriers); got != 11_934_720 {
		t.Fatalf("paper-rate window storage = %d bytes, want 11 934 720", got)
	}
	m.Close()
	if got := ar.Stats().Bytes; got != 0 {
		t.Fatalf("closed session still holds %d arena bytes", got)
	}
}

// TestProcessorArenaMixedLengths: traces of three different lengths whose
// slabs share one size class reuse each other's released slabs, so after
// the first round of calls the arena stops allocating — exact-length
// slabs must not turn mixed-length traffic into fresh allocations.
func TestProcessorArenaMixedLengths(t *testing.T) {
	const rate = 50
	ar := arena.New()
	proc, err := NewProcessor(WithConfig(ConfigForRate(rate)), WithArena(ar))
	if err != nil {
		t.Fatal(err)
	}
	sim := newFixedSim(t, rate, 14, 4)
	// Short, long, middle: the middle trace must fit a released long slab.
	var traces []*trace.Trace
	class := -1
	for _, sec := range []float64{23, 27, 25} {
		tr, err := sim.Generate(sec)
		if err != nil {
			t.Fatal(err)
		}
		n := len(tr.Packets) * len(tr.Packets[0].CSI[0])
		if c := bits.Len(uint(n - 1)); class < 0 {
			class = c
		} else if c != class {
			t.Fatalf("%g s trace (%d floats) is outside size class %d", sec, n, class)
		}
		traces = append(traces, tr)
	}

	var afterFirst arena.Stats
	for round := 0; round < 4; round++ {
		for _, tr := range traces {
			if _, err := proc.Process(tr); err != nil {
				t.Fatal(err)
			}
			if got := ar.Stats().Bytes; got != 0 {
				t.Fatalf("round %d: %d arena bytes still out after Process", round, got)
			}
		}
		st := ar.Stats()
		if round == 0 {
			afterFirst = st
			continue
		}
		if st.Allocs != afterFirst.Allocs {
			t.Fatalf("round %d: allocs grew %d -> %d (stats %+v)", round, afterFirst.Allocs, st.Allocs, st)
		}
	}
}
