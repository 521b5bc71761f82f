package baseline

import (
	"errors"
	"math"
	"strings"
	"testing"

	"phasebeat/internal/csisim"
)

func TestEstimateBreathingRecoversRate(t *testing.T) {
	sim, err := csisim.FixedRatesScenario([]float64{16}, 9)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := sim.Generate(60)
	if err != nil {
		t.Fatal(err)
	}
	est, err := EstimateBreathing(tr)
	if err != nil {
		t.Fatalf("EstimateBreathing: %v", err)
	}
	if math.Abs(est.BreathingBPM-16) > 2 {
		t.Errorf("breathing = %.2f, want 16 ± 2", est.BreathingBPM)
	}
	if est.Subcarrier < 0 || est.Subcarrier >= 30 {
		t.Errorf("selected subcarrier %d", est.Subcarrier)
	}
}

func TestEstimateBreathingValidation(t *testing.T) {
	if _, err := EstimateBreathing(nil); !errors.Is(err, ErrNoData) {
		t.Errorf("want ErrNoData, got %v", err)
	}
	sim, err := csisim.FixedRatesScenario([]float64{15}, 2)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := sim.Generate(1)
	if err != nil {
		t.Fatal(err)
	}
	tr.SampleRate = 0
	if _, err := EstimateBreathing(tr); err == nil {
		t.Error("want error for a zero sample rate")
	}
}

// TestEstimateBreathingRaggedPacket cuts one packet's antenna-0 row
// short: the method must refuse the trace with an error naming the
// packet instead of indexing past the row.
func TestEstimateBreathingRaggedPacket(t *testing.T) {
	sim, err := csisim.FixedRatesScenario([]float64{15}, 2)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := sim.Generate(20)
	if err != nil {
		t.Fatal(err)
	}
	tr.Packets[100].CSI[0] = tr.Packets[100].CSI[0][:10]
	_, err = EstimateBreathing(tr)
	if err == nil {
		t.Fatal("want error for a ragged packet")
	}
	if !strings.Contains(err.Error(), "packet 100") {
		t.Errorf("error %q should name packet 100", err)
	}
}

func TestPeriodicityScore(t *testing.T) {
	fs := 20.0
	periodic := make([]float64, 600)
	noise := make([]float64, 600)
	for i := range periodic {
		periodic[i] = math.Sin(2 * math.Pi * 0.3 * float64(i) / fs)
		noise[i] = math.Sin(float64(i*i) * 0.1) // incoherent
	}
	if periodicityScore(periodic, fs, 0.17, 0.62) <= periodicityScore(noise, fs, 0.17, 0.62) {
		t.Error("periodic signal should score higher than noise")
	}
	if periodicityScore(nil, fs, 0.17, 0.62) != 0 {
		t.Error("empty series should score 0")
	}
}
