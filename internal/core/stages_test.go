package core

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"phasebeat/internal/csisim"
	"phasebeat/internal/trace"
)

// referenceProcess is the pre-stage-graph monolithic pipeline, preserved
// verbatim as the golden reference: the stage graph with the default
// person-count dispatch must produce byte-identical Results.
func referenceProcess(p *Processor, tr *trace.Trace) (*Result, error) {
	if tr == nil || tr.Len() == 0 {
		return nil, fmt.Errorf("%w: empty trace", ErrNoData)
	}
	phaseDiff, err := ExtractPhaseDifference(tr, AntennaA, AntennaB)
	if err != nil {
		return nil, err
	}
	smoothed, err := SmoothAll(phaseDiff, &p.cfg)
	if err != nil {
		return nil, err
	}
	eligible := AmplitudeGate(tr, AntennaA, AntennaB, amplitudeGateFraction)

	envInput := filterEligible(smoothed, eligible)
	env, err := DetectEnvironment(envInput, p.cfg.EnvWindow, EnvMinV, EnvMaxV)
	if err != nil {
		return nil, err
	}
	env.Debounce()
	seg, ok := env.LongestStationary()
	if !ok {
		return &Result{Environment: env}, fmt.Errorf("%w: states %v", ErrNotStationary, env.States)
	}
	if seg.EndSample > len(smoothed[0]) {
		seg.EndSample = len(smoothed[0])
	}
	if seg.EndSample-seg.StartSample < minStationaryWindows*p.cfg.EnvWindow {
		return &Result{Environment: env}, fmt.Errorf("%w: longest stationary run %d samples, need %d",
			ErrNotStationary, seg.EndSample-seg.StartSample, minStationaryWindows*p.cfg.EnvWindow)
	}
	segment := make([][]float64, len(smoothed))
	for i, series := range smoothed {
		segment[i] = series[seg.StartSample:seg.EndSample]
	}
	calibrated, err := Downsample(segment, &p.cfg)
	if err != nil {
		return nil, err
	}
	estRate := tr.SampleRate / float64(p.cfg.DownsampleFactor)
	sel, err := SelectSubcarrier(calibrated, TopK, eligible)
	if err != nil {
		return nil, err
	}
	bands, err := DenoiseDWT(calibrated[sel.Selected], estRate)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Environment:       env,
		StationarySegment: seg,
		Selection:         sel,
		Calibrated:        calibrated,
		Bands:             bands,
		EstimationRate:    estRate,
	}
	breathingHz := 0.0
	if p.nPersons == 1 {
		breathing, err := EstimateBreathingPeaks(bands.Breathing, estRate)
		if err != nil {
			return res, fmt.Errorf("breathing estimation: %w", err)
		}
		res.Breathing = breathing
		breathingHz = breathing.RateBPM / 60
	} else {
		musicInput := filterEligible(calibrated, sel.Eligible)
		multi, err := EstimateBreathingMultiRootMUSIC(musicInput, estRate, p.nPersons)
		if err != nil {
			return res, fmt.Errorf("multi-person estimation: %w", err)
		}
		res.MultiPerson = multi
	}
	heart, err := EstimateHeartRate(bands.Heart, estRate, breathingHz)
	if err != nil {
		return res, nil
	}
	res.Heart = heart
	return res, nil
}

// TestStageGraphGolden asserts the stage-graph pipeline produces
// byte-identical Results to the pre-refactor monolith for the seed
// simulator scenarios under the default configuration.
func TestStageGraphGolden(t *testing.T) {
	cases := []struct {
		name    string
		persons int
		build   func() (*trace.Trace, error)
	}{
		{
			name:    "one-person-lab",
			persons: 1,
			build: func() (*trace.Trace, error) {
				sim, err := csisim.Scenario{
					Kind:          csisim.ScenarioLaboratory,
					TxRxDistanceM: 3,
					NumPersons:    1,
					Seed:          1,
				}.Build()
				if err != nil {
					return nil, err
				}
				return sim.Generate(60)
			},
		},
		{
			name:    "three-person-fixed-rates",
			persons: 3,
			build: func() (*trace.Trace, error) {
				sim, err := csisim.FixedRatesScenario([]float64{8.8, 13.4, 14.9}, 7)
				if err != nil {
					return nil, err
				}
				return sim.Generate(90)
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr, err := tc.build()
			if err != nil {
				t.Fatal(err)
			}
			p, err := NewProcessor(WithPersons(tc.persons))
			if err != nil {
				t.Fatal(err)
			}
			want, wantErr := referenceProcess(p, tr)
			if wantErr != nil {
				t.Fatalf("reference pipeline failed: %v", wantErr)
			}
			got, gotErr := p.Process(tr)
			if gotErr != nil {
				t.Fatalf("stage graph failed: %v", gotErr)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("stage-graph Result differs from reference monolith")
				if got.Breathing != nil && want.Breathing != nil {
					t.Logf("breathing: got %v want %v", got.Breathing.RateBPM, want.Breathing.RateBPM)
				}
				if got.MultiPerson != nil && want.MultiPerson != nil {
					t.Logf("multi: got %v want %v", got.MultiPerson.RatesBPM, want.MultiPerson.RatesBPM)
				}
			}
		})
	}
}

// TestProcessPartialResultContract asserts that every stage failure
// returns both a non-nil partial Result and a *StageError naming the
// failed stage, with the sentinel errors still matchable via errors.Is.
func TestProcessPartialResultContract(t *testing.T) {
	p, err := NewProcessor()
	if err != nil {
		t.Fatal(err)
	}

	// Empty input fails in extraction, with an empty-but-usable Result.
	res, err := p.Process(nil)
	if res == nil {
		t.Fatal("Process(nil) returned a nil Result")
	}
	if !errors.Is(err, ErrNoData) {
		t.Fatalf("want ErrNoData, got %v", err)
	}
	var se *StageError
	if !errors.As(err, &se) || se.Stage != StageExtract {
		t.Fatalf("want StageError{extract}, got %v", err)
	}

	// A motion-only trace fails in segment selection; the partial Result
	// must carry the environment detection that proves why.
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
	res, err = p.Process(tr)
	if res == nil {
		t.Fatal("Process returned a nil Result on the motion trace")
	}
	if !errors.Is(err, ErrNotStationary) {
		t.Fatalf("want ErrNotStationary, got %v", err)
	}
	if !errors.As(err, &se) || se.Stage != StageSegment {
		t.Fatalf("want StageError{segment}, got %v", err)
	}
	if res.Environment == nil {
		t.Error("partial Result lost the environment detection")
	}
}

// recordingObserver captures every stage callback for assertions.
type recordingObserver struct {
	mu      sync.Mutex
	started []string
	ended   []StageStats
}

func (o *recordingObserver) OnStageStart(stage string) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.started = append(o.started, stage)
}

func (o *recordingObserver) OnStageEnd(s StageStats) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.ended = append(o.ended, s)
}

func TestStageObserverBatchSequence(t *testing.T) {
	sim, err := csisim.FixedRatesScenario([]float64{16}, 12)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := sim.Generate(40)
	if err != nil {
		t.Fatal(err)
	}
	obs := &recordingObserver{}
	p, err := NewProcessor(WithObserver(obs))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Process(tr); err != nil {
		t.Fatalf("Process: %v", err)
	}
	want := StageNames()
	if !reflect.DeepEqual(obs.started, want) {
		t.Errorf("started = %v, want %v", obs.started, want)
	}
	if len(obs.ended) != len(want) {
		t.Fatalf("got %d end callbacks, want %d", len(obs.ended), len(want))
	}
	for i, s := range obs.ended {
		if s.Stage != want[i] {
			t.Errorf("ended[%d] = %q, want %q", i, s.Stage, want[i])
		}
		if s.Err != nil {
			t.Errorf("stage %s reported error %v", s.Stage, s.Err)
		}
		if s.Duration < 0 {
			t.Errorf("stage %s negative duration", s.Stage)
		}
		if s.Samples <= 0 || s.Subcarriers <= 0 {
			t.Errorf("stage %s reported shape %dx%d", s.Stage, s.Samples, s.Subcarriers)
		}
	}
	// Downstream stages see the downsampled shape, upstream the raw one.
	if obs.ended[0].Samples != tr.Len() {
		t.Errorf("extract samples = %d, want %d", obs.ended[0].Samples, tr.Len())
	}
	last := obs.ended[len(obs.ended)-1]
	if last.Samples >= tr.Len() {
		t.Errorf("estimate samples = %d, want < %d (downsampled)", last.Samples, tr.Len())
	}
}

func TestStageObserverStopsAtFailingStage(t *testing.T) {
	obs := &recordingObserver{}
	p, err := NewProcessor(WithObserver(obs))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Process(nil); err == nil {
		t.Fatal("want error for nil trace")
	}
	if len(obs.ended) != 1 || obs.ended[0].Stage != StageExtract || obs.ended[0].Err == nil {
		t.Errorf("ended = %+v, want single failing extract record", obs.ended)
	}
}

// TestGateFallbackSurfaced drives an all-rejected gate through
// SelectSubcarrier and checks the fallback is recorded instead of silent.
func TestGateFallbackSurfaced(t *testing.T) {
	calibrated := [][]float64{
		{1, 2, 1, 2, 1, 2}, {0, 1, 0, 1, 0, 1}, {5, 1, 5, 1, 5, 1},
	}
	eligible := []bool{false, false, false}
	sel, err := SelectSubcarrier(calibrated, 3, eligible)
	if err != nil {
		t.Fatal(err)
	}
	if !sel.GateFallback {
		t.Error("GateFallback not set for an all-rejected gate")
	}
	if sel.Rejected != 3 {
		t.Errorf("Rejected = %d, want 3", sel.Rejected)
	}
	if len(sel.TopK) == 0 {
		t.Error("fallback did not rank any subcarriers")
	}

	// A partial gate records the rejected count without the fallback flag.
	sel, err = SelectSubcarrier(calibrated, 3, []bool{true, false, true})
	if err != nil {
		t.Fatal(err)
	}
	if sel.GateFallback {
		t.Error("GateFallback set for a non-degenerate gate")
	}
	if sel.Rejected != 1 {
		t.Errorf("Rejected = %d, want 1", sel.Rejected)
	}

	// No gate at all: nothing rejected, no fallback.
	sel, err = SelectSubcarrier(calibrated, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sel.GateFallback || sel.Rejected != 0 {
		t.Errorf("ungated selection recorded fallback=%v rejected=%d", sel.GateFallback, sel.Rejected)
	}
}

// TestEstimatorBackends runs each breathing backend over the
// same fixed-rate capture and checks all four recover the truth.
func TestEstimatorBackends(t *testing.T) {
	sim, err := csisim.FixedRatesScenario([]float64{17}, 44)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := sim.Generate(60)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		estimator string
		tolerance float64
	}{
		{"peaks", 1},
		{"root-music", 2},
		{"esprit", 2},
		{"amplitude", 2},
	}
	for _, tc := range cases {
		t.Run(tc.estimator, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Estimator = tc.estimator
			p, err := NewProcessor(WithConfig(cfg))
			if err != nil {
				t.Fatal(err)
			}
			res, err := p.Process(tr)
			if err != nil {
				t.Fatalf("Process with estimator %s: %v", tc.estimator, err)
			}
			var got float64
			switch {
			case res.Breathing != nil:
				got = res.Breathing.RateBPM
			case res.MultiPerson != nil && len(res.MultiPerson.RatesBPM) > 0:
				got = res.MultiPerson.RatesBPM[0]
			default:
				t.Fatal("no breathing estimate produced")
			}
			if math.Abs(got-17) > tc.tolerance {
				t.Errorf("estimator %s = %.2f bpm, want 17 ± %g", tc.estimator, got, tc.tolerance)
			}
		})
	}
}

func TestEstimatorRegistry(t *testing.T) {
	names := BreathingEstimatorNames()
	for _, want := range []string{"amplitude", "esprit", "peaks", "root-music"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("registry %v missing %q", names, want)
		}
	}
	if _, err := LookupBreathingEstimator("bogus"); err == nil {
		t.Error("want error for unknown estimator")
	}

	cfg := DefaultConfig()
	cfg.Estimator = "not-a-backend"
	if _, err := NewProcessor(WithConfig(cfg)); err == nil {
		t.Error("want NewProcessor error for unknown estimator")
	}
}

func TestMonitorRejectsRawTraceEstimatorIncrementally(t *testing.T) {
	cfg := DefaultMonitorConfig()
	cfg.Pipeline.Estimator = "amplitude"
	_, err := NewMonitor(cfg)
	if err == nil {
		t.Fatal("want error: amplitude estimator on a Monitor")
	}
	for _, want := range []string{"amplitude", "batch-only"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q should contain %q", err, want)
		}
	}
}

func TestStageErrorFormatting(t *testing.T) {
	inner := fmt.Errorf("%w: details", ErrNotStationary)
	err := &StageError{Stage: StageSegment, Err: inner}
	if !errors.Is(err, ErrNotStationary) {
		t.Error("StageError does not unwrap to the sentinel")
	}
	if !strings.Contains(err.Error(), StageSegment) {
		t.Errorf("StageError message %q does not name the stage", err.Error())
	}
}

// TestTimingObserverConcurrent hammers one shared TimingObserver from
// many goroutines — a batch run, the stride worker and an evaluation
// loop can all report into the same collector — interleaving OnStageEnd
// with Table renders. Run under -race this pins the observer's
// synchronization; the final table must also account for every single
// observation.
func TestTimingObserverConcurrent(t *testing.T) {
	o := NewTimingObserver()
	stages := StageNames()
	const workers = 8
	const perWorker = 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				s := stages[(seed+i)%len(stages)]
				o.OnStageStart(s)
				o.OnStageEnd(StageStats{Stage: s, Duration: time.Microsecond, Samples: i, Subcarriers: 3})
				if i%97 == 0 {
					if tbl := o.Table(); !strings.Contains(tbl, "all stages") {
						t.Error("concurrent Table render truncated")
					}
				}
			}
		}(w)
	}
	wg.Wait()

	known := make(map[string]bool, len(stages))
	for _, s := range stages {
		known[s] = true
	}
	var runs int
	for _, line := range strings.Split(o.Table(), "\n") {
		fields := strings.Fields(line)
		if len(fields) < 2 || !known[fields[0]] {
			continue
		}
		n, err := strconv.Atoi(fields[1])
		if err != nil {
			t.Fatalf("unparsable runs column in %q: %v", line, err)
		}
		runs += n
	}
	if want := workers * perWorker; runs != want {
		t.Fatalf("table accounts for %d observations, want %d", runs, want)
	}
}
