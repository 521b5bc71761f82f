package core

import (
	"errors"
	"math"
	"testing"

	"phasebeat/internal/csisim"
	"phasebeat/internal/trace"
)

// syntheticTrace builds a trace directly, bypassing the simulator, so
// degenerate inputs can be injected.
func syntheticTrace(packets, antennas, subcarriers int, fill func(pkt, ant, sub int) complex128) *trace.Trace {
	tr := &trace.Trace{
		SampleRate:     400,
		NumAntennas:    antennas,
		NumSubcarriers: subcarriers,
		Packets:        make([]trace.Packet, 0, packets),
	}
	for k := 0; k < packets; k++ {
		p := trace.Packet{Time: float64(k) / 400, CSI: make([][]complex128, antennas)}
		for a := 0; a < antennas; a++ {
			row := make([]complex128, subcarriers)
			for s := range row {
				row[s] = fill(k, a, s)
			}
			p.CSI[a] = row
		}
		tr.Packets = append(tr.Packets, p)
	}
	return tr
}

// An all-zero trace must not panic anywhere in the pipeline; it is an
// empty room at worst.
func TestPipelineSurvivesZeroCSI(t *testing.T) {
	tr := syntheticTrace(4000, 2, 30, func(_, _, _ int) complex128 { return 0 })
	p, err := NewProcessor()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Process(tr); err == nil {
		// A zero trace has zero variance: rejection is acceptable, success
		// is acceptable, a panic is not (reaching here means no panic).
		t.Log("zero trace processed without error")
	}
}

// A constant-CSI trace (static channel, no noise) should be classified as
// no-person.
func TestPipelineConstantChannelIsNoPerson(t *testing.T) {
	tr := syntheticTrace(4000, 2, 30, func(_, a, s int) complex128 {
		return complex(float64(1+a), float64(s)*0.01)
	})
	p, err := NewProcessor()
	if err != nil {
		t.Fatal(err)
	}
	_, err = p.Process(tr)
	if !errors.Is(err, ErrNotStationary) {
		t.Fatalf("want ErrNotStationary for static channel, got %v", err)
	}
}

// A trace with one dead subcarrier (hardware reporting zeros) must not
// derail estimation on the healthy ones.
func TestPipelineSurvivesDeadSubcarrier(t *testing.T) {
	sim, err := csisim.FixedRatesScenario([]float64{15}, 77)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := sim.Generate(60)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range tr.Packets {
		for a := range p.CSI {
			p.CSI[a][7] = 0 // dead subcarrier on every antenna
		}
	}
	p, err := NewProcessor()
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Process(tr)
	if err != nil {
		t.Fatalf("Process: %v", err)
	}
	if res.Breathing == nil || math.Abs(res.Breathing.RateBPM-15) > 1.5 {
		t.Errorf("breathing estimate degraded by dead subcarrier: %+v", res.Breathing)
	}
	if res.Selection.Selected == 7 {
		t.Error("selection picked the dead subcarrier")
	}
}

// NaN CSI values (driver glitches) must not propagate into a panic.
func TestPipelineSurvivesNaNPackets(t *testing.T) {
	sim, err := csisim.FixedRatesScenario([]float64{14}, 78)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := sim.Generate(30)
	if err != nil {
		t.Fatal(err)
	}
	nan := math.NaN()
	tr.Packets[100].CSI[0][3] = complex(nan, nan)
	tr.Packets[200].CSI[1][9] = complex(nan, 0)
	p, err := NewProcessor()
	if err != nil {
		t.Fatal(err)
	}
	// Success or rejection both acceptable — no panic is the contract.
	if _, err := p.Process(tr); err != nil {
		t.Logf("NaN trace rejected: %v", err)
	}
}

// A ragged packet — one antenna row shorter than the trace's subcarrier
// count — fails the extract stage with an error instead of panicking, at
// the default Parallelism too.
func TestProcessRaggedPacketIsExtractError(t *testing.T) {
	sim, err := csisim.FixedRatesScenario([]float64{14}, 78)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := sim.Generate(30)
	if err != nil {
		t.Fatal(err)
	}
	tr.Packets[100].CSI[1] = tr.Packets[100].CSI[1][:10]
	p, err := NewProcessor()
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Process(tr)
	var se *StageError
	if !errors.As(err, &se) || se.Stage != StageExtract {
		t.Fatalf("want StageError{extract}, got %v", err)
	}
	if res == nil {
		t.Fatal("Process returned a nil Result")
	}
}

// An Inf cell, on any antenna, fails the extract stage with ErrNonFinite:
// its phase is finite, so only the cell check can stop it before it rides
// into a "successful" estimate.
func TestProcessRejectsInfCell(t *testing.T) {
	sim, err := csisim.FixedRatesScenario([]float64{14}, 78)
	if err != nil {
		t.Fatal(err)
	}
	for _, ant := range []int{AntennaA, 2} {
		tr, err := sim.Generate(30)
		if err != nil {
			t.Fatal(err)
		}
		tr.Packets[100].CSI[ant][3] = complex(math.Inf(1), 0)
		p, err := NewProcessor()
		if err != nil {
			t.Fatal(err)
		}
		_, err = p.Process(tr)
		var se *StageError
		if !errors.Is(err, ErrNonFinite) || !errors.As(err, &se) || se.Stage != StageExtract {
			t.Fatalf("antenna %d: want StageError{extract} matching ErrNonFinite, got %v", ant, err)
		}
	}
}

// Very short but nonempty traces must fail cleanly.
func TestPipelineShortTrace(t *testing.T) {
	sim, err := csisim.FixedRatesScenario([]float64{15}, 79)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := sim.Generate(0.5)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewProcessor()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Process(tr); err == nil {
		t.Error("want an error for a 0.5 s trace")
	}
}

// A single-antenna trace cannot produce a phase difference.
func TestPipelineSingleAntenna(t *testing.T) {
	tr := syntheticTrace(1000, 1, 30, func(_, _, _ int) complex128 { return 1 })
	p, err := NewProcessor()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Process(tr); err == nil {
		t.Error("want an error for a single-antenna trace")
	}
}

// AmplitudeGate marks deep-fade subcarriers ineligible and tolerates
// degenerate inputs.
func TestAmplitudeGate(t *testing.T) {
	tr := syntheticTrace(100, 2, 4, func(_, a, s int) complex128 {
		if s == 2 {
			return complex(0.001, 0) // deep fade
		}
		return complex(1, 0)
	})
	gate := AmplitudeGate(tr, 0, 1, 0.3)
	want := []bool{true, true, false, true}
	for i, w := range want {
		if gate[i] != w {
			t.Errorf("gate[%d] = %v, want %v", i, gate[i], w)
		}
	}
	if AmplitudeGate(nil, 0, 1, 0.3) != nil {
		t.Error("nil trace should produce nil gate")
	}
}
