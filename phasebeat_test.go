package phasebeat

import (
	"bytes"
	"errors"
	"math"
	"testing"
	"time"
)

func TestPublicAPIEndToEnd(t *testing.T) {
	tr, truth, err := Simulate(Scenario{
		Kind:          ScenarioLaboratory,
		TxRxDistanceM: 3,
		NumPersons:    1,
		Seed:          6,
	}, 60)
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	res, err := ProcessTrace(tr)
	if err != nil {
		t.Fatalf("ProcessTrace: %v", err)
	}
	if res.Breathing == nil {
		t.Fatal("no breathing estimate")
	}
	if math.Abs(res.Breathing.RateBPM-truth[0].BreathingBPM) > 1 {
		t.Errorf("breathing %.2f, truth %.2f", res.Breathing.RateBPM, truth[0].BreathingBPM)
	}
}

func TestPublicAPIMultiPerson(t *testing.T) {
	tr, truth, err := SimulateFixedRates([]float64{13, 21}, 90, 9)
	if err != nil {
		t.Fatalf("SimulateFixedRates: %v", err)
	}
	res, err := ProcessTrace(tr, WithPersons(2))
	if err != nil {
		t.Fatalf("ProcessTrace: %v", err)
	}
	if res.MultiPerson == nil || len(res.MultiPerson.RatesBPM) != 2 {
		t.Fatalf("multi-person result: %+v", res.MultiPerson)
	}
	for i, want := range []float64{truth[0].BreathingBPM, truth[1].BreathingBPM} {
		if math.Abs(res.MultiPerson.RatesBPM[i]-want) > 1.5 {
			t.Errorf("rate[%d] = %.2f, want %.2f", i, res.MultiPerson.RatesBPM[i], want)
		}
	}
}

func TestPublicAPIBaseline(t *testing.T) {
	tr, truth, err := SimulateFixedRates([]float64{17}, 60, 3)
	if err != nil {
		t.Fatal(err)
	}
	est, err := EstimateAmplitudeBaseline(tr)
	if err != nil {
		t.Fatalf("EstimateAmplitudeBaseline: %v", err)
	}
	if math.Abs(est.BreathingBPM-truth[0].BreathingBPM) > 2.5 {
		t.Errorf("baseline breathing %.2f, truth %.2f", est.BreathingBPM, truth[0].BreathingBPM)
	}
}

func TestPublicAPITraceRoundTrip(t *testing.T) {
	tr, _, err := Simulate(Scenario{
		Kind:          ScenarioCorridor,
		TxRxDistanceM: 5,
		NumPersons:    1,
		Seed:          2,
	}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, tr); err != nil {
		t.Fatalf("WriteTrace: %v", err)
	}
	got, err := ReadTraceAuto(&buf)
	if err != nil {
		t.Fatalf("ReadTraceAuto: %v", err)
	}
	if got.Len() != tr.Len() || got.SampleRate != tr.SampleRate {
		t.Errorf("round trip mismatch: %d/%v vs %d/%v", got.Len(), got.SampleRate, tr.Len(), tr.SampleRate)
	}
}

func TestPublicAPIMonitor(t *testing.T) {
	sim, err := NewSimulator(Scenario{
		Kind:          ScenarioLaboratory,
		TxRxDistanceM: 3,
		NumPersons:    1,
		Seed:          11,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultMonitorConfig()
	cfg.WindowSeconds = 30
	cfg.UpdateEverySeconds = 30
	m, err := NewMonitor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	go func() {
		for i := 0; i < int(31*cfg.SampleRate); i++ {
			if !m.Ingest(sim.NextPacket()) {
				return
			}
		}
	}()
	select {
	case u := <-m.Updates():
		if u.Err != nil {
			t.Fatalf("update error: %v", u.Err)
		}
		if u.Result == nil || u.Result.Breathing == nil {
			t.Fatal("missing breathing estimate")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("no update within deadline")
	}
}

func TestPublicAPIErrors(t *testing.T) {
	if _, err := ProcessTrace(nil); !errors.Is(err, ErrNoData) {
		t.Errorf("want ErrNoData, got %v", err)
	}
	if _, _, err := Simulate(Scenario{Kind: ScenarioLaboratory}, 10); err == nil {
		t.Error("want error for zero distance")
	}
	bad := DefaultConfig()
	bad.EnvWindow = 1
	if _, err := ProcessTrace(&Trace{}, WithConfig(bad)); err == nil {
		t.Error("want error for invalid config")
	}
	if DefaultConfig().DownsampleFactor != 20 {
		t.Error("unexpected default downsample factor")
	}
	if ConfigForRate(200).DownsampleFactor != 10 {
		t.Error("unexpected scaled downsample factor")
	}
}

func TestEnvironmentStateConstants(t *testing.T) {
	if EnvNoPerson.String() != "no-person" || EnvStationary.String() != "stationary" || EnvMotion.String() != "motion" {
		t.Error("state constants mismatch")
	}
}
