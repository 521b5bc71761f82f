package eval

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"

	"phasebeat/internal/core"
	"phasebeat/internal/csisim"
	"phasebeat/internal/dsp"
)

// randFor derives a deterministic rand.Rand from a seed.
func randFor(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// Fig01PhaseStability reproduces Fig. 1: the polar scatter of raw
// single-antenna phase versus phase difference for 600 consecutive packets
// of the 5th subcarrier, summarized as circular statistics.
func Fig01PhaseStability(opts Options) (*Report, error) {
	opts = opts.withDefaults(1)
	sim, err := csisim.Scenario{
		Kind:          csisim.ScenarioLaboratory,
		TxRxDistanceM: 3,
		NumPersons:    1,
		Seed:          opts.Seed + 1,
	}.Build()
	if err != nil {
		return nil, err
	}
	tr, err := sim.Generate(1.5) // 600 packets at 400 Hz
	if err != nil {
		return nil, err
	}
	const subcarrier = 4 // the paper's 5th subcarrier

	raw := make([]float64, tr.Len())
	for k, p := range tr.Packets {
		raw[k] = dsp.WrapPhase(cmplx.Phase(p.CSI[0][subcarrier]))
	}
	diff, err := core.WrappedPhaseDifference(tr, 0, 1, subcarrier)
	if err != nil {
		return nil, err
	}
	rawStats := dsp.Circular(raw)
	diffStats := dsp.Circular(diff)
	rawSector := dsp.SectorWidth(raw, 0.95) * 180 / math.Pi
	diffSector := dsp.SectorWidth(diff, 0.95) * 180 / math.Pi

	return &Report{
		Name:  "fig01",
		Paper: "single-antenna phase ~uniform over 0-360°; phase difference concentrated in a ~20° sector",
		Table: Table{
			Title:  "Fig. 1 — CSI phase stability over 600 packets (subcarrier 5)",
			Header: []string{"signal", "resultant R", "circular stddev (rad)", "95% sector (deg)"},
			Rows: [][]string{
				{"raw phase (1 antenna)", f(rawStats.R, 3), f(rawStats.StdDev, 3), f(rawSector, 1)},
				{"phase difference", f(diffStats.R, 3), f(diffStats.StdDev, 3), f(diffSector, 1)},
			},
		},
	}, nil
}

// Fig03Environment reproduces Fig. 3: the detection statistic V across a
// scripted minute of sitting, no person, standing up and walking, with the
// paper's thresholds [0.25, 6].
func Fig03Environment(opts Options) (*Report, error) {
	opts = opts.withDefaults(1)
	schedule := []csisim.ScheduleSegment{
		{State: csisim.StateSitting, DurationS: 15},
		{State: csisim.StateAbsent, DurationS: 15},
		{State: csisim.StateStandingUp, DurationS: 5},
		{State: csisim.StateSitting, DurationS: 10},
		{State: csisim.StateWalking, DurationS: 15},
	}
	rep, err := environmentReport("fig03", schedule, opts)
	if err != nil {
		return nil, err
	}
	rep.Paper = "sitting: sinusoidal phase difference; no person: flat; standing up / walking: large fluctuations; thresholds 0.25-6 separate them"
	return rep, nil
}

// environmentReport runs the detector over a scheduled trace and tabulates
// V per true state.
func environmentReport(name string, schedule []csisim.ScheduleSegment, opts Options) (*Report, error) {
	env := csisim.Environment{
		StaticPaths:   csisim.RandomStaticPaths(randFor(opts.Seed+3), 6, 3),
		TxRxDistanceM: 3,
	}
	person := csisim.RandomPerson(randFor(opts.Seed+4), 4.5, csisim.ReflectionGainAt(3, false))
	person.Schedule = schedule
	sim, err := csisim.New(csisim.Config{
		Env:         env,
		Persons:     []csisim.Person{person},
		NumAntennas: 2,
		Seed:        opts.Seed + 5,
	})
	if err != nil {
		return nil, err
	}
	var total float64
	for _, seg := range schedule {
		total += seg.DurationS
	}
	tr, err := sim.Generate(total)
	if err != nil {
		return nil, err
	}
	cfg := core.DefaultConfig()
	pd, err := core.ExtractPhaseDifference(tr, core.AntennaA, core.AntennaB)
	if err != nil {
		return nil, err
	}
	smoothed, err := core.SmoothAll(pd, &cfg)
	if err != nil {
		return nil, err
	}
	det, err := core.DetectEnvironment(smoothed, cfg.EnvWindow, core.EnvMinV, core.EnvMaxV)
	if err != nil {
		return nil, err
	}

	rows := make([][]string, 0, len(det.V))
	correct, counted := 0, 0
	for w, v := range det.V {
		tSec := float64(w*cfg.EnvWindow) / tr.SampleRate
		trueState := person.StateAt(tSec + 0.5)
		want := expectedEnvState(trueState)
		got := det.States[w]
		counted++
		if got == want {
			correct++
		}
		rows = append(rows, []string{
			f(tSec, 0), trueState.String(), f(v, 2), got.String(),
		})
	}
	rep := &Report{
		Name: name,
		Table: Table{
			Title:  "Fig. 3 — environment detection statistic V (eq. 8) per 1 s window",
			Header: []string{"t (s)", "true activity", "V", "detected"},
			Rows:   rows,
		},
	}
	rep.Notes = append(rep.Notes, fmt.Sprintf("window classification agreement: %d/%d", correct, counted))
	return rep, nil
}

// expectedEnvState maps a simulated activity to the detector class it
// should produce.
func expectedEnvState(s csisim.ActivityState) core.EnvironmentState {
	switch {
	case s == csisim.StateAbsent:
		return core.EnvNoPerson
	case s.Stationary():
		return core.EnvStationary
	default:
		return core.EnvMotion
	}
}

// Fig04Calibration reproduces Fig. 4: the effect of data calibration — DC
// removed, high-frequency noise suppressed, 10000 packets reduced to 500.
func Fig04Calibration(opts Options) (*Report, error) {
	opts = opts.withDefaults(1)
	sim, err := csisim.FixedRatesScenario([]float64{15}, opts.Seed+7)
	if err != nil {
		return nil, err
	}
	tr, err := sim.Generate(25) // 10000 packets at 400 Hz
	if err != nil {
		return nil, err
	}
	cfg := core.DefaultConfig()
	pd, err := core.ExtractPhaseDifference(tr, core.AntennaA, core.AntennaB)
	if err != nil {
		return nil, err
	}
	calibrated, err := core.Calibrate(pd, &cfg)
	if err != nil {
		return nil, err
	}

	const sub = 19
	before := pd[sub]
	after := calibrated[sub]
	// High-frequency noise proxy: power above 2.5 Hz relative to total.
	hfBefore := bandFraction(before, tr.SampleRate, 2.5)
	hfAfter := bandFraction(after, tr.SampleRate/float64(cfg.DownsampleFactor), 2.5)

	return &Report{
		Name:  "fig04",
		Paper: "original data has DC offset and HF noise; calibrated data is a low-noise sinusoid; packets 10000 → 500",
		Table: Table{
			Title:  "Fig. 4 — data calibration (subcarrier 20)",
			Header: []string{"stage", "samples", "mean (DC)", "HF power fraction >2.5 Hz"},
			Rows: [][]string{
				{"original", fmt.Sprint(len(before)), f(dsp.Mean(before), 3), f(hfBefore, 4)},
				{"calibrated", fmt.Sprint(len(after)), f(dsp.Mean(after), 3), f(hfAfter, 4)},
			},
		},
	}, nil
}

// bandFraction returns the fraction of (mean-removed) spectral power above
// fCut; 0 when fCut is at or above Nyquist.
func bandFraction(x []float64, fs, fCut float64) float64 {
	if fCut >= fs/2 {
		return 0
	}
	sp, err := dsp.MagnitudeSpectrum(dsp.RemoveMean(x), fs, dsp.NextPowerOfTwo(len(x)))
	if err != nil {
		return 0
	}
	total := sp.Power(sp.Freqs[1], fs/2)
	if total == 0 {
		return 0
	}
	return sp.Power(fCut, fs/2) / total
}

// Fig05SubcarrierPatterns reproduces Fig. 5: per-subcarrier sensitivity of
// the calibrated series (the heatmap summarized by per-subcarrier MAD and
// dominant frequency).
func Fig05SubcarrierPatterns(opts Options) (*Report, error) {
	opts = opts.withDefaults(1)
	res, truth, err := labResult(opts, false)
	if err != nil {
		return nil, err
	}
	rows := make([][]string, 0, len(res.Calibrated))
	for s, series := range res.Calibrated {
		mad := dsp.MeanAbsDev(series)
		dom, derr := dsp.DominantFrequency(series, res.EstimationRate, 0.15, 0.65, 4096)
		domStr := "-"
		if derr == nil {
			domStr = f(dom*60, 1)
		}
		rows = append(rows, []string{fmt.Sprint(s + 1), f(mad, 4), domStr})
	}
	return &Report{
		Name:  "fig05",
		Paper: "calibrated subcarriers show sinusoidal patterns; neighbors of subcarrier 20 most sensitive",
		Table: Table{
			Title:  fmt.Sprintf("Fig. 5 — calibrated per-subcarrier patterns (true breathing %.1f bpm)", truth),
			Header: []string{"subcarrier", "MAD", "dominant freq (bpm)"},
			Rows:   rows,
		},
	}, nil
}

// Fig06DWT reproduces Fig. 6: the wavelet decomposition bands and what
// they isolate.
func Fig06DWT(opts Options) (*Report, error) {
	opts = opts.withDefaults(1)
	res, truth, err := labResult(opts, true)
	if err != nil {
		return nil, err
	}
	fs := res.EstimationRate
	rows := [][]string{}
	// Approximation band.
	aLo, aHi := 0.0, fs/16/2
	_ = aLo
	rows = append(rows, bandRow("α4 (breathing)", res.Bands.Breathing, fs, 0.05, aHi))
	rows = append(rows, bandRow("β3+β4 (heart)", res.Bands.Heart, fs, core.HeartBandLow, core.HeartBandHigh))
	for lev := 1; lev <= res.Bands.Decomposition.Levels(); lev++ {
		sig, err := res.Bands.Decomposition.ReconstructDetails(lev)
		if err != nil {
			return nil, err
		}
		lo, hi := bandEdges(fs, lev)
		rows = append(rows, []string{
			fmt.Sprintf("β%d", lev),
			fmt.Sprintf("%.3f-%.3f", lo, hi),
			f(dsp.RMS(sig), 4), "-",
		})
	}
	return &Report{
		Name:  "fig06",
		Paper: "db wavelet, L=4: α4 covers 0-0.625 Hz (breathing), β3+β4 covers 0.625-2.5 Hz (heart)",
		Table: Table{
			Title:  fmt.Sprintf("Fig. 6 — DWT bands (true breathing %.1f bpm)", truth),
			Header: []string{"band", "nominal range (Hz)", "RMS", "dominant freq (Hz)"},
			Rows:   rows,
		},
	}, nil
}

func bandRow(name string, sig []float64, fs, lo, hi float64) []string {
	dom, err := dsp.DominantFrequency(sig, fs, lo, hi, 4096)
	domStr := "-"
	if err == nil {
		domStr = f(dom, 3)
	}
	return []string{name, fmt.Sprintf("%.3f-%.3f", lo, hi), f(dsp.RMS(sig), 4), domStr}
}

func bandEdges(fs float64, level int) (lo, hi float64) {
	hi = fs / pow2(level)
	lo = hi / 2
	return lo, hi
}

func pow2(n int) float64 {
	out := 1.0
	for i := 0; i < n; i++ {
		out *= 2
	}
	return out
}

// Fig07SubcarrierSelection reproduces Fig. 7: the per-subcarrier mean
// absolute deviation and the top-k median selection.
func Fig07SubcarrierSelection(opts Options) (*Report, error) {
	opts = opts.withDefaults(1)
	res, _, err := labResult(opts, false)
	if err != nil {
		return nil, err
	}
	sel := res.Selection
	rows := make([][]string, 0, len(sel.MAD))
	for s, mad := range sel.MAD {
		mark := ""
		for _, k := range sel.TopK {
			if k == s {
				mark = "top-k"
			}
		}
		if s == sel.Selected {
			mark = "SELECTED"
		}
		rows = append(rows, []string{fmt.Sprint(s + 1), f(mad, 4), mark})
	}
	return &Report{
		Name:  "fig07",
		Paper: "MAD ranks subcarrier sensitivity; k=3 maxima taken, median of the three selected",
		Table: Table{
			Title:  "Fig. 7 — subcarrier selection by mean absolute deviation",
			Header: []string{"subcarrier", "MAD", "role"},
			Rows:   rows,
		},
	}, nil
}

// labResult runs the standard single-person lab pipeline for the analysis
// figures.
func labResult(opts Options, directional bool) (*core.Result, float64, error) {
	sim, err := csisim.Scenario{
		Kind:          csisim.ScenarioLaboratory,
		TxRxDistanceM: 3,
		NumPersons:    1,
		DirectionalTx: directional,
		Seed:          opts.Seed + 11,
	}.Build()
	if err != nil {
		return nil, 0, err
	}
	tr, err := sim.Generate(opts.DurationS)
	if err != nil {
		return nil, 0, err
	}
	p, err := opts.newProcessor(core.DefaultConfig(), 1)
	if err != nil {
		return nil, 0, err
	}
	res, err := p.Process(tr)
	if err != nil {
		return nil, 0, err
	}
	return res, sim.Truth()[0].BreathingBPM, nil
}
