package core

import (
	"math"
	"math/cmplx"
	"testing"

	"phasebeat/internal/trace"
)

// The guards in this file pin the columnar refactor's allocation contract:
// a warm stride engine ingests packets with zero allocations, and the
// per-stride cost carries no per-subcarrier copies (allocation *count* is
// flat in the subcarrier count — the data all lives in the pre-sized
// columnar rings and matrices). `make check` runs them via go test.

// allocGuardConfig is allocTestConfig at an arbitrary subcarrier count,
// serialized so goroutine spawning doesn't show up as allocation noise.
func allocGuardConfig(nSub int) MonitorConfig {
	cfg := allocTestConfig()
	cfg.NumAntennas = 2
	cfg.NumSubcarriers = nSub
	cfg.Pipeline.Parallelism = 1
	return cfg
}

// syntheticPackets pre-builds n packets carrying a clean breathing-band
// phase signal (so the full stride path, not just its error prefix, runs)
// — built ahead of measurement so packet construction never pollutes the
// allocation counts.
func syntheticPackets(n, ants, nSub int, rate float64) []trace.Packet {
	out := make([]trace.Packet, n)
	for i := range out {
		tm := float64(i) / rate
		breath := 0.35 * math.Sin(2*math.Pi*0.23*tm)
		p := trace.NewPacket(tm, ants, nSub)
		for a := 0; a < ants; a++ {
			for s := 0; s < nSub; s++ {
				phase := breath*float64(a) + 0.05*float64(s) + 0.8*float64(a)
				p.CSI[a][s] = cmplx.Rect(1+0.1*float64(s%3), phase)
			}
		}
		out[i] = p
	}
	return out
}

// warmEngine builds a stride engine and feeds it until every lazy buffer
// and pool is settled, returning the engine and a cursor into pkts.
func warmEngine(t *testing.T, cfg *MonitorConfig, pkts []trace.Packet) (*strideEngine, *int) {
	t.Helper()
	proc, err := NewProcessor(WithConfig(cfg.Pipeline), WithPersons(1))
	if err != nil {
		t.Fatal(err)
	}
	eng := cfg.newEngine(proc)
	if eng.window <= 2*eng.margin+eng.stride {
		t.Fatalf("config does not engage incremental reuse (window %d, margin %d, stride %d)",
			eng.window, eng.margin, eng.stride)
	}
	idx := 0
	for idx < 3*eng.window {
		eng.push(pkts[idx])
		idx++
		if eng.ready() {
			// Errors here would be caught by the exactness tests; the
			// guards only count allocations.
			_, _ = eng.process()
		}
	}
	return eng, &idx
}

// TestWarmPushZeroAllocs: after warm-up, pushing a packet into the
// columnar rings allocates nothing — the transpose writes straight into
// pre-sized column slots.
func TestWarmPushZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	cfg := allocGuardConfig(16)
	pkts := syntheticPackets(6*400, cfg.NumAntennas, cfg.NumSubcarriers, cfg.SampleRate)
	eng, idx := warmEngine(t, &cfg, pkts)

	allocs := testing.AllocsPerRun(200, func() {
		eng.push(pkts[*idx])
		*idx++
	})
	if allocs != 0 {
		t.Fatalf("warm push allocates %.1f times per packet, want 0", allocs)
	}
}

// strideAllocCount measures the mean allocation count of one warm
// engine-owned stride (stride pushes + the columnar extract/smooth/gate
// pass) at the given subcarrier count. The downstream batch stages are
// excluded: their costs (selection's median scratch, result assembly) are
// per-stride, not per-subcarrier-copy, and predate the columnar engine.
func strideAllocCount(t *testing.T, nSub int) float64 {
	cfg := allocGuardConfig(nSub)
	pkts := syntheticPackets(6*400, cfg.NumAntennas, nSub, cfg.SampleRate)
	eng, idx := warmEngine(t, &cfg, pkts)

	return testing.AllocsPerRun(8, func() {
		for i := 0; i < eng.stride; i++ {
			eng.push(pkts[*idx])
			*idx++
		}
		slide := eng.sinceLast
		eng.sinceLast = 0
		if _, err := eng.strideSmooth(slide); err != nil {
			t.Errorf("strideSmooth: %v", err)
		}
	})
}

// TestStrideNoPerSubcarrierCopyAllocs: quadrupling the subcarrier count
// must not grow the warm stride's allocation count — the per-subcarrier
// series are views into the columnar rings, never fresh copies.
func TestStrideNoPerSubcarrierCopyAllocs(t *testing.T) {
	if raceEnabled {
		// Race instrumentation allocates shadow state proportional to the
		// memory touched, so counts grow with nSub even without copies.
		t.Skip("allocation counts scale with footprint under the race detector")
	}
	small := strideAllocCount(t, 8)
	large := strideAllocCount(t, 32)
	t.Logf("per-stride allocations: %.1f at 8 subcarriers, %.1f at 32", small, large)
	// Anything that copied per subcarrier would add at least one
	// allocation per extra subcarrier (24 here); allow a few for
	// incidental noise (pool refills after a GC).
	if large > small+4 {
		t.Fatalf("per-stride allocations grew with subcarrier count: %.1f at 8 → %.1f at 32", small, large)
	}
}
