package core

import (
	"math"
	"math/rand"
	"testing"

	"phasebeat/internal/csisim"
	"phasebeat/internal/trace"
)

// BenchmarkPipelineProcess measures batch pipeline throughput in
// packets/sec over a one-minute default-rate trace, serial versus fanned
// across every core. On a single-core runner the two are expected to tie.
// The case names do not depend on GOMAXPROCS, so a -cpu 1 report still
// names (and the baseline still gates) both.
func BenchmarkPipelineProcess(b *testing.B) {
	sim, err := csisim.FixedRatesScenario([]float64{17}, 33)
	if err != nil {
		b.Fatal(err)
	}
	tr, err := sim.Generate(60)
	if err != nil {
		b.Fatal(err)
	}
	cases := []struct {
		name    string
		workers int
	}{
		{"serial", 1},
		{"fanout", 0},
	}
	for _, bc := range cases {
		b.Run(bc.name, func(b *testing.B) {
			cfg := DefaultConfig()
			cfg.Parallelism = bc.workers
			proc, err := NewProcessor(WithConfig(cfg), WithPersons(1))
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := proc.Process(tr); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(tr.Len())*float64(b.N)/b.Elapsed().Seconds(), "packets/sec")
		})
	}
}

// BenchmarkQuarantinePush measures the Monitor's per-packet ingest hot
// path: quarantine validation (shape, finiteness, monotonic time) plus
// the ring-cache update of the incremental engine. This is the path
// every live packet crosses, so it must stay allocation-free and in the
// hundreds of nanoseconds.
func BenchmarkQuarantinePush(b *testing.B) {
	cfg := DefaultMonitorConfig()
	proc, err := NewProcessor(WithConfig(cfg.Pipeline), WithPersons(cfg.Persons))
	if err != nil {
		b.Fatal(err)
	}
	eng := cfg.newEngine(proc)
	sim, err := csisim.FixedRatesScenario([]float64{17}, 11)
	if err != nil {
		b.Fatal(err)
	}
	pool := make([]trace.Packet, 4096)
	for i := range pool {
		pool[i] = sim.NextPacket()
	}
	dt := 1 / cfg.SampleRate
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Cycle the pool but keep timestamps monotonic, or the wrap
		// would route every later packet into the rejection path.
		p := pool[i%len(pool)]
		p.Time = float64(i) * dt
		if v, _ := eng.push(p); v != pushAccepted {
			b.Fatalf("packet %d rejected: %v", i, v)
		}
	}
}

// BenchmarkDWTDenoise measures the wavelet band-extraction stage over a
// one-minute calibrated series at the default 20 Hz estimation rate.
func BenchmarkDWTDenoise(b *testing.B) {
	cfg := DefaultConfig()
	fs := 400.0 / float64(cfg.DownsampleFactor)
	n := int(60 * fs)
	series := make([]float64, n)
	rng := rand.New(rand.NewSource(3))
	for t := range series {
		ti := float64(t) / fs
		series[t] = math.Sin(2*math.Pi*0.28*ti) + 0.2*math.Sin(2*math.Pi*1.8*ti) + 0.05*rng.NormFloat64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DenoiseDWT(series, fs, &cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEstimateStage isolates the estimate stage's per-stride cost
// from smoothing: full correlation + EigSym root-MUSIC, and the full DWT,
// at the default operating point — 60 s window, 5 s stride, 20 Hz
// estimation rate, 30 subcarriers, 2 persons. Both variants pay the same
// window-shift cost per iteration, so the figures are pure estimator work.
func BenchmarkEstimateStage(b *testing.B) {
	const (
		rows     = 30
		nDec     = 1200 // 60 s at 20 Hz
		slideDec = 100  // 5 s stride
		fs       = 20.0
	)
	// 64 strides of signal, periodic so the window can wrap seamlessly:
	// every tone's period divides the 320 s pool. The benchmark loop just
	// re-slices window views into this pool, so iterations pay zero fixture
	// cost and the figures below are pure estimator work.
	const pool = 64 * slideDec
	cfg := DefaultConfig()

	// Two stationary breathing tones plus measurement noise; each
	// subcarrier sees them with its own phase and mix, like calibrated
	// CSI. The noise is drawn once per pool index, so the wrapped window
	// stays self-consistent. Without it the correlation matrix is
	// rank-deficient and root-MUSIC's roots sit exactly on the unit
	// circle — an unrealistically hard numerical corner.
	rng := rand.New(rand.NewSource(11))
	full := make([][]float64, rows)
	for r := range full {
		full[r] = make([]float64, pool+nDec)
		pr := float64(r) * 0.7
		for k := 0; k < pool; k++ {
			ti := float64(k) / fs
			full[r][k] = math.Sin(2*math.Pi*0.20*ti+pr) +
				0.8*math.Sin(2*math.Pi*0.3125*ti+1.3*pr) +
				0.05*rng.NormFloat64()
		}
		copy(full[r][pool:], full[r][:nDec])
	}
	// window re-points the calib views at stride i's window start.
	window := func(calib [][]float64, i int) {
		s := (i % 64) * slideDec
		for r := range calib {
			calib[r] = full[r][s : s+nDec]
		}
	}

	b.Run("music-exact", func(b *testing.B) {
		calib := make([][]float64, rows)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			window(calib, i)
			if _, err := EstimateBreathingMultiRootMUSIC(calib, fs, 2); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("dwt-exact", func(b *testing.B) {
		calib := make([][]float64, rows)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			window(calib, i)
			if _, err := DenoiseDWT(calib[0], fs, &cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkMonitorStride measures one streaming stride of the stride
// engine at the default monitor operating point (60 s window, 5 s stride,
// 400 Hz). The samples/stride metric is the per-subcarrier count of
// samples actually smoothed; TestIncrementalSampleReductionAtDefaults
// pins it at least 5× below the window length. The batch Processor, which
// TestIncrementalMatchesBatch holds the engine to, is measured by
// BenchmarkPipelineProcess.
//
// Each stride's packets continue one simulated stream, generated with the
// timer stopped: a recycled packet pool would splice the stream at its
// wrap (time running backwards, a phase discontinuity in the window) and
// time the rejection and error paths instead of the stride. Any rejected
// packet or stride error fails the benchmark.
func BenchmarkMonitorStride(b *testing.B) {
	cfg := DefaultMonitorConfig()
	window := int(cfg.WindowSeconds * cfg.SampleRate)
	stride := int(cfg.UpdateEverySeconds * cfg.SampleRate)

	b.Run("incremental", func(b *testing.B) {
		proc, err := NewProcessor(WithConfig(cfg.Pipeline), WithPersons(cfg.Persons))
		if err != nil {
			b.Fatal(err)
		}
		eng := cfg.newEngine(proc)
		sim, err := csisim.FixedRatesScenario([]float64{17}, 7)
		if err != nil {
			b.Fatal(err)
		}
		push := func(p trace.Packet) {
			if v, _ := eng.push(p); v != pushAccepted {
				b.Fatalf("packet at t=%.4f rejected: %v", p.Time, v)
			}
		}
		for i := 0; i < window; i++ {
			push(sim.NextPacket())
		}
		if _, err := eng.process(); err != nil {
			b.Fatal(err)
		}
		next := make([]trace.Packet, stride)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			for k := range next {
				next[k] = sim.NextPacket()
			}
			b.StartTimer()
			for _, p := range next {
				push(p)
			}
			if _, err := eng.process(); err != nil {
				b.Fatalf("stride %d: %v", i, err)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(stride)*float64(b.N)/b.Elapsed().Seconds(), "packets/sec")
		b.ReportMetric(float64(eng.lastSmoothedSamples), "samples/stride")
	})
}
