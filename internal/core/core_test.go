package core

import (
	"errors"
	"math"
	"reflect"
	"sort"
	"testing"

	"phasebeat/internal/csisim"
	"phasebeat/internal/dsp"
	"phasebeat/internal/trace"
)

// labTrace simulates a single sitting person in the laboratory scenario.
func labTrace(t testing.TB, seed int64, durationS float64, persons int) (*trace.Trace, []csisim.VitalTruth) {
	t.Helper()
	sim, err := csisim.Scenario{
		Kind:          csisim.ScenarioLaboratory,
		TxRxDistanceM: 3,
		NumPersons:    persons,
		Seed:          seed,
	}.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	tr, err := sim.Generate(durationS)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return tr, sim.Truth()
}

func TestExtractPhaseDifferenceValidation(t *testing.T) {
	tr, _ := labTrace(t, 1, 0.1, 1)
	if _, err := ExtractPhaseDifference(nil, 0, 1); !errors.Is(err, ErrNoData) {
		t.Errorf("want ErrNoData, got %v", err)
	}
	if _, err := ExtractPhaseDifference(tr, 0, 0); err == nil {
		t.Error("want error for identical antennas")
	}
	if _, err := ExtractPhaseDifference(tr, 0, 9); err == nil {
		t.Error("want error for out-of-range antenna")
	}
	pd, err := ExtractPhaseDifference(tr, 0, 1)
	if err != nil {
		t.Fatalf("ExtractPhaseDifference: %v", err)
	}
	if len(pd) != 30 || len(pd[0]) != tr.Len() {
		t.Errorf("shape = %dx%d", len(pd), len(pd[0]))
	}
}

func TestExtractRawPhaseValidation(t *testing.T) {
	tr, _ := labTrace(t, 2, 0.1, 1)
	if _, err := ExtractRawPhase(tr, -1); err == nil {
		t.Error("want error for negative antenna")
	}
	raw, err := ExtractRawPhase(tr, 0)
	if err != nil {
		t.Fatalf("ExtractRawPhase: %v", err)
	}
	if len(raw) != 30 {
		t.Errorf("subcarriers = %d", len(raw))
	}
	if _, err := ExtractRawPhase(nil, 0); !errors.Is(err, ErrNoData) {
		t.Errorf("want ErrNoData, got %v", err)
	}
}

func TestWrappedPhaseDifferenceValidation(t *testing.T) {
	tr, _ := labTrace(t, 3, 0.1, 1)
	if _, err := WrappedPhaseDifference(tr, 0, 1, 99); err == nil {
		t.Error("want error for bad subcarrier")
	}
	if _, err := WrappedPhaseDifference(tr, 0, 5, 0); err == nil {
		t.Error("want error for bad antenna")
	}
	w, err := WrappedPhaseDifference(tr, 0, 1, 4)
	if err != nil {
		t.Fatalf("WrappedPhaseDifference: %v", err)
	}
	for _, v := range w {
		if v <= -math.Pi || v > math.Pi {
			t.Fatalf("unwrapped value %v", v)
		}
	}
}

// TestConfigKnobs pins the settable fields of Config and MonitorConfig.
// The paper's fixed parameters are constants (config.go); a new option
// must be added here on purpose, where review sees it.
func TestConfigKnobs(t *testing.T) {
	for _, tc := range []struct {
		typ  reflect.Type
		want []string
	}{
		{reflect.TypeOf(Config{}), []string{
			"DownsampleFactor", "EnvWindow", "Estimator", "Observer", "Parallelism",
			"Sink", "SmoothWindow", "TrendWindow",
		}},
		{reflect.TypeOf(MonitorConfig{}), []string{
			"Arena", "DropOnBacklog", "IngestBuffer", "Logger", "Metrics",
			"NumAntennas", "NumSubcarriers", "Persons", "Pipeline", "SampleRate",
			"Tracer", "UpdateEverySeconds", "WindowSeconds",
		}},
	} {
		var got []string
		for i := 0; i < tc.typ.NumField(); i++ {
			if f := tc.typ.Field(i); f.IsExported() {
				got = append(got, f.Name)
			}
		}
		sort.Strings(got)
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s fields = %v, want %v", tc.typ.Name(), got, tc.want)
		}
	}
}

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	mutations := []func(*Config){
		func(c *Config) { c.TrendWindow = 1 },
		func(c *Config) { c.SmoothWindow = 0 },
		func(c *Config) { c.DownsampleFactor = 0 },
		func(c *Config) { c.EnvWindow = 1 },
		func(c *Config) { c.Parallelism = -1 },
		func(c *Config) { c.Estimator = "bogus" },
	}
	for i, mut := range mutations {
		cfg := DefaultConfig()
		mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("mutation %d not rejected", i)
		}
	}
}

func TestConfigForRate(t *testing.T) {
	cfg := ConfigForRate(200)
	if cfg.DownsampleFactor != 10 {
		t.Errorf("factor = %d, want 10", cfg.DownsampleFactor)
	}
	if cfg.TrendWindow != 1000 || cfg.SmoothWindow != 25 {
		t.Errorf("windows = %d, %d", cfg.TrendWindow, cfg.SmoothWindow)
	}
	if err := cfg.Validate(); err != nil {
		t.Errorf("scaled config invalid: %v", err)
	}
	low := ConfigForRate(20)
	if low.DownsampleFactor != 1 {
		t.Errorf("20 Hz factor = %d, want 1", low.DownsampleFactor)
	}
	if err := low.Validate(); err != nil {
		t.Errorf("20 Hz config invalid: %v", err)
	}
	if def := ConfigForRate(0); def.DownsampleFactor != 20 {
		t.Error("non-positive rate should return defaults")
	}
}

func TestSelectSubcarrier(t *testing.T) {
	// Three series with MADs 0 < small < large; top-2 = {large, small},
	// median of 2 (k/2 = index 1 ascending) = large.
	flat := make([]float64, 100)
	small := make([]float64, 100)
	large := make([]float64, 100)
	for i := range small {
		small[i] = 0.1 * math.Sin(float64(i)/5)
		large[i] = math.Sin(float64(i) / 5)
	}
	sel, err := SelectSubcarrier([][]float64{flat, small, large}, 2, nil)
	if err != nil {
		t.Fatalf("SelectSubcarrier: %v", err)
	}
	if sel.Selected != 2 {
		t.Errorf("selected = %d, want 2", sel.Selected)
	}
	if sel.TopK[0] != 2 || sel.TopK[1] != 1 {
		t.Errorf("TopK = %v", sel.TopK)
	}
	// k=3 (all): median is the middle MAD → series 1.
	sel3, err := SelectSubcarrier([][]float64{flat, small, large}, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sel3.Selected != 1 {
		t.Errorf("selected = %d, want 1 (median of three)", sel3.Selected)
	}
	if _, err := SelectSubcarrier(nil, 3, nil); !errors.Is(err, ErrNoData) {
		t.Errorf("want ErrNoData, got %v", err)
	}
	if _, err := SelectSubcarrier([][]float64{flat}, 0, nil); err == nil {
		t.Error("want error for k=0")
	}
	// k larger than subcarrier count clamps.
	selBig, err := SelectSubcarrier([][]float64{small, large}, 10, nil)
	if err != nil {
		t.Fatalf("clamped k: %v", err)
	}
	if len(selBig.TopK) != 2 {
		t.Errorf("TopK length = %d, want 2", len(selBig.TopK))
	}
}

func TestDetectEnvironmentClassification(t *testing.T) {
	// Build a matrix whose windows have controlled MAD sums.
	mk := func(amplitude float64, n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = amplitude * math.Sin(float64(i))
		}
		return out
	}
	quiet := [][]float64{mk(0.001, 100)}
	det, err := DetectEnvironment(quiet, 50, 0.25, 6)
	if err != nil {
		t.Fatalf("DetectEnvironment: %v", err)
	}
	for _, s := range det.States {
		if s != EnvNoPerson {
			t.Errorf("quiet state = %v", s)
		}
	}
	breathing := [][]float64{mk(1.0, 100)}
	det, err = DetectEnvironment(breathing, 50, 0.25, 6)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range det.States {
		if s != EnvStationary {
			t.Errorf("breathing state = %v", s)
		}
	}
	moving := [][]float64{mk(40, 100)}
	det, err = DetectEnvironment(moving, 50, 0.25, 6)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range det.States {
		if s != EnvMotion {
			t.Errorf("moving state = %v", s)
		}
	}
	if _, err := DetectEnvironment(nil, 50, 0.25, 6); !errors.Is(err, ErrNoData) {
		t.Errorf("want ErrNoData, got %v", err)
	}
	if _, err := DetectEnvironment(quiet, 1, 0.25, 6); err == nil {
		t.Error("want error for tiny window")
	}
}

func TestSegmentsAndLongestStationary(t *testing.T) {
	det := &EnvironmentDetection{
		States: []EnvironmentState{
			EnvMotion, EnvStationary, EnvStationary, EnvNoPerson,
			EnvStationary, EnvStationary, EnvStationary,
		},
		WindowLen: 10,
	}
	segs := det.Segments()
	if len(segs) != 4 {
		t.Fatalf("segments = %d, want 4", len(segs))
	}
	best, ok := det.LongestStationary()
	if !ok {
		t.Fatal("no stationary segment found")
	}
	if best.StartSample != 40 || best.EndSample != 70 {
		t.Errorf("best = [%d, %d), want [40, 70)", best.StartSample, best.EndSample)
	}
	none := &EnvironmentDetection{States: []EnvironmentState{EnvMotion}, WindowLen: 10}
	if _, ok := none.LongestStationary(); ok {
		t.Error("motion-only detection should have no stationary segment")
	}
	if (&EnvironmentDetection{}).Segments() != nil {
		t.Error("empty detection should have nil segments")
	}
}

func TestEnvironmentStateString(t *testing.T) {
	if EnvNoPerson.String() != "no-person" || EnvStationary.String() != "stationary" ||
		EnvMotion.String() != "motion" {
		t.Error("state strings wrong")
	}
	if EnvironmentState(42).String() == "" {
		t.Error("unknown state should render")
	}
}

// End-to-end: the pipeline recovers a known breathing rate from a
// simulated lab trace within the paper's error scale.
func TestPipelineRecoversBreathingRate(t *testing.T) {
	sim, err := csisim.FixedRatesScenario([]float64{17}, 44)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := sim.Generate(60)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewProcessor()
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Process(tr)
	if err != nil {
		t.Fatalf("Process: %v", err)
	}
	if res.Breathing == nil {
		t.Fatal("no breathing estimate")
	}
	if math.Abs(res.Breathing.RateBPM-17) > 1 {
		t.Errorf("breathing = %.2f bpm, want 17 ± 1", res.Breathing.RateBPM)
	}
	if res.EstimationRate != 20 {
		t.Errorf("estimation rate = %v, want 20", res.EstimationRate)
	}
	if res.Selection == nil || len(res.Selection.MAD) != 30 {
		t.Error("missing subcarrier selection")
	}
}

func TestPipelineMultiPerson(t *testing.T) {
	sim, err := csisim.FixedRatesScenario([]float64{12, 19}, 7)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := sim.Generate(90)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewProcessor(WithPersons(2))
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Process(tr)
	if err != nil {
		t.Fatalf("Process: %v", err)
	}
	if res.MultiPerson == nil || len(res.MultiPerson.RatesBPM) != 2 {
		t.Fatalf("multi-person result = %+v", res.MultiPerson)
	}
	if math.Abs(res.MultiPerson.RatesBPM[0]-12) > 1.5 {
		t.Errorf("rate[0] = %.2f, want 12 ± 1.5", res.MultiPerson.RatesBPM[0])
	}
	if math.Abs(res.MultiPerson.RatesBPM[1]-19) > 1.5 {
		t.Errorf("rate[1] = %.2f, want 19 ± 1.5", res.MultiPerson.RatesBPM[1])
	}
}

func TestPipelineRejectsMotionOnlyTrace(t *testing.T) {
	sim, err := csisim.New(csisim.Config{
		Env: csisim.Environment{
			StaticPaths:   []csisim.StaticPath{{Gain: 0.3, DelayNS: 10, AoADeg: 0}, {Gain: 0.1, DelayNS: 30, AoADeg: 40}},
			TxRxDistanceM: 3,
		},
		Persons: []csisim.Person{{
			BreathingRateBPM: 15, HeartRateBPM: 70,
			BreathingAmpM: 0.005, HeartAmpM: 0.0004,
			PathDistanceM: 4, ReflectionGain: csisim.ReflectionGainAt(3, false),
			Schedule: []csisim.ScheduleSegment{{State: csisim.StateWalking, DurationS: 1e9}},
		}},
		NumAntennas: 2,
		Seed:        5,
	})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := sim.Generate(20)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewProcessor()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Process(tr); !errors.Is(err, ErrNotStationary) {
		t.Errorf("want ErrNotStationary, got %v", err)
	}
}

func TestProcessorOptionValidation(t *testing.T) {
	if _, err := NewProcessor(WithPersons(0)); err == nil {
		t.Error("want error for zero persons")
	}
	bad := DefaultConfig()
	bad.EnvWindow = 1
	if _, err := NewProcessor(WithConfig(bad)); err == nil {
		t.Error("want error for invalid config")
	}
	p, err := NewProcessor()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Process(nil); !errors.Is(err, ErrNoData) {
		t.Errorf("want ErrNoData, got %v", err)
	}
}

func TestHeartRateOnDirectionalTrace(t *testing.T) {
	sim, err := csisim.Scenario{
		Kind:          csisim.ScenarioLaboratory,
		TxRxDistanceM: 2.5,
		NumPersons:    1,
		DirectionalTx: true,
		Seed:          13,
	}.Build()
	if err != nil {
		t.Fatal(err)
	}
	tr, err := sim.Generate(60)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewProcessor()
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Process(tr)
	if err != nil {
		t.Fatalf("Process: %v", err)
	}
	if res.Heart == nil {
		t.Fatal("no heart estimate")
	}
	truth := sim.Truth()[0].HeartBPM
	if math.Abs(res.Heart.RateBPM-truth) > 8 {
		t.Errorf("heart = %.1f bpm, want %.1f ± 8", res.Heart.RateBPM, truth)
	}
}

func TestDenoiseDWTBandSplit(t *testing.T) {
	fs := 20.0
	n := 1200
	series := make([]float64, n)
	for i := range series {
		ti := float64(i) / fs
		series[i] = math.Sin(2*math.Pi*0.3*ti) + 0.2*math.Sin(2*math.Pi*1.3*ti)
	}
	bands, err := DenoiseDWT(series, fs)
	if err != nil {
		t.Fatalf("DenoiseDWT: %v", err)
	}
	fb, err := dsp.DominantFrequency(bands.Breathing, fs, 0.1, 0.62, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fb-0.3) > 0.02 {
		t.Errorf("breathing band frequency = %v, want 0.3", fb)
	}
	fh, err := dsp.DominantFrequency(bands.Heart, fs, 0.625, 2.5, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fh-1.3) > 0.05 {
		t.Errorf("heart band frequency = %v, want 1.3", fh)
	}
	if bands.Decomposition.Levels() != 4 {
		t.Errorf("levels = %d, want 4", bands.Decomposition.Levels())
	}
	// Too-short input errors.
	if _, err := DenoiseDWT(make([]float64, 4), 20); !errors.Is(err, ErrNoData) {
		t.Errorf("want ErrNoData, got %v", err)
	}
}

func TestEstimateBreathingFallsBackToFFT(t *testing.T) {
	// 10 s at 20 Hz of 0.25 Hz — only ~2 peaks, triggering the fallback.
	fs := 20.0
	x := make([]float64, 200)
	for i := range x {
		x[i] = math.Sin(2 * math.Pi * 0.25 * float64(i) / fs)
	}
	est, err := EstimateBreathingPeaks(x, fs)
	if err != nil {
		t.Fatalf("EstimateBreathingPeaks: %v", err)
	}
	if math.Abs(est.RateBPM-15) > 1.5 {
		t.Errorf("rate = %v, want ~15", est.RateBPM)
	}
	if _, err := EstimateBreathingPeaks(nil, fs); !errors.Is(err, ErrNoData) {
		t.Errorf("want ErrNoData, got %v", err)
	}
}

func TestEstimateHeartRateValidation(t *testing.T) {
	if _, err := EstimateHeartRate(nil, 20, 0); !errors.Is(err, ErrNoData) {
		t.Errorf("want ErrNoData, got %v", err)
	}
	fs := 20.0
	x := make([]float64, 600)
	f0 := 1.15
	for i := range x {
		x[i] = math.Sin(2 * math.Pi * f0 * float64(i) / fs)
	}
	est, err := EstimateHeartRate(x, fs, 0)
	if err != nil {
		t.Fatalf("EstimateHeartRate: %v", err)
	}
	if math.Abs(est.RateBPM-f0*60) > 1 {
		t.Errorf("heart = %v bpm, want %v", est.RateBPM, f0*60)
	}
}

func TestEstimateBreathingMultiValidation(t *testing.T) {
	if _, err := EstimateBreathingMultiRootMUSIC(nil, 20, 1); !errors.Is(err, ErrNoData) {
		t.Errorf("want ErrNoData, got %v", err)
	}
	if _, err := EstimateBreathingMultiRootMUSIC([][]float64{{1, 2}}, 20, 0); err == nil {
		t.Error("want error for zero persons")
	}
	short := [][]float64{make([]float64, 30)}
	if _, err := EstimateBreathingMultiRootMUSIC(short, 20, 1); !errors.Is(err, ErrNoData) {
		t.Errorf("want ErrNoData for short series, got %v", err)
	}
	if _, err := EstimateBreathingMultiFFT(nil, 20, 0); err == nil {
		t.Error("want error for zero persons (FFT)")
	}
}

func BenchmarkPipelineSinglePerson60s(b *testing.B) {
	sim, err := csisim.FixedRatesScenario([]float64{16}, 3)
	if err != nil {
		b.Fatal(err)
	}
	tr, err := sim.Generate(60)
	if err != nil {
		b.Fatal(err)
	}
	p, err := NewProcessor()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Process(tr); err != nil {
			b.Fatal(err)
		}
	}
}

func TestEstimatePersonCount(t *testing.T) {
	for _, tc := range []struct {
		rates []float64
		want  int
	}{
		{[]float64{15}, 1},
		{[]float64{11, 19}, 2},
	} {
		sim, err := csisim.FixedRatesScenario(tc.rates, 55)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := sim.Generate(90)
		if err != nil {
			t.Fatal(err)
		}
		p, err := NewProcessor(WithPersons(len(tc.rates)))
		if err != nil {
			t.Fatal(err)
		}
		res, err := p.Process(tr)
		if err != nil {
			t.Fatalf("Process: %v", err)
		}
		got, err := EstimatePersonCount(res.Calibrated, res.EstimationRate, 5)
		if err != nil {
			t.Fatalf("EstimatePersonCount: %v", err)
		}
		// MDL order selection is approximate; allow ±1 but require it to
		// scale with the true count.
		if got < tc.want || got > tc.want+1 {
			t.Errorf("%d persons estimated as %d", tc.want, got)
		}
	}
	if _, err := EstimatePersonCount(nil, 20, 3); err == nil {
		t.Error("want error for empty input")
	}
	if _, err := EstimatePersonCount([][]float64{{1}}, 20, 0); err == nil {
		t.Error("want error for zero maxPersons")
	}
}

func TestCalibrateEndToEnd(t *testing.T) {
	sim, err := csisim.FixedRatesScenario([]float64{16}, 91)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := sim.Generate(25)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	pd, err := ExtractPhaseDifference(tr, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	calibrated, err := Calibrate(pd, &cfg)
	if err != nil {
		t.Fatalf("Calibrate: %v", err)
	}
	if len(calibrated) != 30 {
		t.Fatalf("subcarriers = %d", len(calibrated))
	}
	wantLen := tr.Len() / cfg.DownsampleFactor
	if len(calibrated[0]) != wantLen {
		t.Errorf("calibrated length = %d, want %d", len(calibrated[0]), wantLen)
	}
	// DC must be gone.
	for s, series := range calibrated {
		if m := dsp.Mean(series); m > 0.15 || m < -0.15 {
			t.Errorf("subcarrier %d mean %v after calibration", s, m)
		}
	}
	// prepareMusicSeries covers the decimation path.
	series, fs, err := prepareMusicSeries(calibrated, 20)
	if err != nil {
		t.Fatalf("prepareMusicSeries: %v", err)
	}
	if fs != 2 || len(series) != 30 {
		t.Errorf("music series: fs=%v n=%d", fs, len(series))
	}
}

func TestEstimateBreathingMultiFFTTwoTones(t *testing.T) {
	fs := 20.0
	n := 1200
	x := make([]float64, n)
	for i := range x {
		ti := float64(i) / fs
		x[i] = math.Sin(2*math.Pi*0.2*ti) + 0.8*math.Sin(2*math.Pi*0.35*ti)
	}
	est, err := EstimateBreathingMultiFFT(x, fs, 2)
	if err != nil {
		t.Fatalf("EstimateBreathingMultiFFT: %v", err)
	}
	if len(est.RatesBPM) != 2 {
		t.Fatalf("rates = %v", est.RatesBPM)
	}
	if math.Abs(est.RatesBPM[0]-12) > 0.5 || math.Abs(est.RatesBPM[1]-21) > 0.5 {
		t.Errorf("rates = %v, want [12 21]", est.RatesBPM)
	}
	if est.Method != "fft" {
		t.Errorf("method = %q", est.Method)
	}
	// A flat signal has no in-band local maxima.
	if _, err := EstimateBreathingMultiFFT(make([]float64, 600), fs, 2); err == nil {
		t.Error("want error for flat signal")
	}
}
