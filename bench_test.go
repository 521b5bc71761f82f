package phasebeat

// The benchmarks below regenerate every figure of the paper's evaluation
// (go test -bench Fig -benchmem) and measure the ablations called out in
// DESIGN.md (go test -bench Ablation). Statistical experiments run with
// reduced trial counts so a full -bench=. pass stays tractable; use
// cmd/experiments for publication-sized runs. Figure benchmarks publish
// their headline numbers through b.ReportMetric.

import (
	"math"
	"strconv"
	"testing"

	"phasebeat/internal/core"
	"phasebeat/internal/csisim"
	"phasebeat/internal/dsp"
	"phasebeat/internal/eval"
)

// benchOpts keeps figure benchmarks affordable.
func benchOpts() eval.Options {
	return eval.Options{Trials: 6, DurationS: 60, Seed: 1}
}

// runFigure executes an experiment once per benchmark iteration.
func runFigure(b *testing.B, run func(eval.Options) (*eval.Report, error)) *eval.Report {
	b.Helper()
	var rep *eval.Report
	var err error
	for i := 0; i < b.N; i++ {
		rep, err = run(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
	}
	return rep
}

func BenchmarkFig01PhaseStability(b *testing.B) {
	rep := runFigure(b, eval.Fig01PhaseStability)
	// Row 0: raw phase; row 1: phase difference; column 1: resultant R.
	b.ReportMetric(cell(rep, 0, 1), "rawR")
	b.ReportMetric(cell(rep, 1, 1), "diffR")
}

func BenchmarkFig03EnvironmentDetection(b *testing.B) {
	runFigure(b, eval.Fig03Environment)
}

func BenchmarkFig04Calibration(b *testing.B) {
	rep := runFigure(b, eval.Fig04Calibration)
	b.ReportMetric(cell(rep, 1, 3), "hfFracAfter")
}

func BenchmarkFig05SubcarrierPatterns(b *testing.B) {
	runFigure(b, eval.Fig05SubcarrierPatterns)
}

func BenchmarkFig06DWT(b *testing.B) {
	runFigure(b, eval.Fig06DWT)
}

func BenchmarkFig07SubcarrierSelection(b *testing.B) {
	runFigure(b, eval.Fig07SubcarrierSelection)
}

func BenchmarkFig08MultiPersonFFT(b *testing.B) {
	runFigure(b, eval.Fig08MultiPersonFFT)
}

func BenchmarkFig09HeartFFT(b *testing.B) {
	rep := runFigure(b, eval.Fig09HeartFFT)
	b.ReportMetric(cell(rep, 3, 1), "errBPM")
}

func BenchmarkFig11BreathingCDF(b *testing.B) {
	rep := runFigure(b, eval.Fig11BreathingCDF)
	b.ReportMetric(cell(rep, 0, 1), "phaseMedianBPM")
	b.ReportMetric(cell(rep, 1, 1), "ampMedianBPM")
}

func BenchmarkFig12HeartCDF(b *testing.B) {
	rep := runFigure(b, eval.Fig12HeartCDF)
	b.ReportMetric(cell(rep, 0, 1), "medianBPM")
}

func BenchmarkFig13SamplingSweep(b *testing.B) {
	rep := runFigure(b, eval.Fig13SamplingSweep)
	b.ReportMetric(cell(rep, 0, 2), "heartAcc20Hz")
	b.ReportMetric(cell(rep, 2, 2), "heartAcc400Hz")
}

func BenchmarkFig14MultiPersonAccuracy(b *testing.B) {
	rep := runFigure(b, eval.Fig14MultiPersonAccuracy)
	b.ReportMetric(cell(rep, 2, 1), "rootMusic30Acc4p")
	b.ReportMetric(cell(rep, 2, 3), "fftAcc4p")
}

func BenchmarkFig15CorridorDistance(b *testing.B) {
	runFigure(b, eval.Fig15CorridorDistance)
}

func BenchmarkFig16ThroughWallDistance(b *testing.B) {
	runFigure(b, eval.Fig16ThroughWallDistance)
}

// cell parses a numeric table cell; NaN when unparsable.
func cell(rep *eval.Report, row, col int) float64 {
	if row >= len(rep.Table.Rows) || col >= len(rep.Table.Rows[row]) {
		return math.NaN()
	}
	v, err := strconv.ParseFloat(rep.Table.Rows[row][col], 64)
	if err != nil {
		return math.NaN()
	}
	return v
}

// --- Ablation benchmarks (DESIGN.md § 5) ---------------------------------

// ablationTraces builds a deterministic set of single-person lab traces.
func ablationTraces(b *testing.B, n int, directional bool) []ablationTrial {
	b.Helper()
	out := make([]ablationTrial, 0, n)
	for seed := int64(0); seed < int64(n); seed++ {
		sim, err := csisim.Scenario{
			Kind:          csisim.ScenarioLaboratory,
			TxRxDistanceM: 3,
			NumPersons:    1,
			DirectionalTx: directional,
			Seed:          500 + seed*97,
		}.Build()
		if err != nil {
			b.Fatal(err)
		}
		tr, err := sim.Generate(60)
		if err != nil {
			b.Fatal(err)
		}
		out = append(out, ablationTrial{trace: tr, truth: sim.Truth()[0]})
	}
	return out
}

type ablationTrial struct {
	trace *Trace
	truth VitalTruth
}

// meanAbsErr runs an estimator over the trials and reports the mean
// absolute breathing error; failures count as a 10 bpm penalty so a
// variant cannot win by abstaining.
func meanAbsErr(trials []ablationTrial, estimate func(ablationTrial) (float64, error)) float64 {
	var sum float64
	for _, t := range trials {
		got, err := estimate(t)
		if err != nil {
			sum += 10
			continue
		}
		sum += math.Abs(got - t.truth.BreathingBPM)
	}
	return sum / float64(len(trials))
}

// BenchmarkAblationPhaseDiffVsRaw quantifies the paper's core claim: the
// same pipeline fed with single-antenna phase instead of the antenna phase
// difference.
func BenchmarkAblationPhaseDiffVsRaw(b *testing.B) {
	trials := ablationTraces(b, 4, false)
	cfg := core.DefaultConfig()
	var diffErr, rawErr float64
	for i := 0; i < b.N; i++ {
		diffErr = meanAbsErr(trials, func(t ablationTrial) (float64, error) {
			res, err := ProcessTrace(t.trace)
			if err != nil || res.Breathing == nil {
				return 0, errFrom(err)
			}
			return res.Breathing.RateBPM, nil
		})
		rawErr = meanAbsErr(trials, func(t ablationTrial) (float64, error) {
			raw, err := core.ExtractRawPhase(t.trace, 0)
			if err != nil {
				return 0, err
			}
			return estimateFromMatrix(raw, t.trace.SampleRate, &cfg)
		})
	}
	b.ReportMetric(diffErr, "diffErrBPM")
	b.ReportMetric(rawErr, "rawErrBPM")
}

// estimateFromMatrix runs calibration → selection → DWT → peak estimation
// on an arbitrary phase matrix (used by ablations that bypass Process).
func estimateFromMatrix(matrix [][]float64, sampleRate float64, cfg *core.Config) (float64, error) {
	calibrated, err := core.Calibrate(matrix, cfg)
	if err != nil {
		return 0, err
	}
	sel, err := core.SelectSubcarrier(calibrated, core.TopK, nil)
	if err != nil {
		return 0, err
	}
	estRate := sampleRate / float64(cfg.DownsampleFactor)
	bands, err := core.DenoiseDWT(calibrated[sel.Selected], estRate, cfg)
	if err != nil {
		return 0, err
	}
	est, err := core.EstimateBreathingPeaks(bands.Breathing, estRate)
	if err != nil {
		return 0, err
	}
	return est.RateBPM, nil
}

// BenchmarkAblationDetrend compares Hampel detrending against plain mean
// removal before the rest of the pipeline.
func BenchmarkAblationDetrend(b *testing.B) {
	trials := ablationTraces(b, 4, false)
	cfg := core.DefaultConfig()
	var hampelErr, meanErr float64
	for i := 0; i < b.N; i++ {
		hampelErr = meanAbsErr(trials, func(t ablationTrial) (float64, error) {
			pd, err := core.ExtractPhaseDifference(t.trace, 0, 1)
			if err != nil {
				return 0, err
			}
			return estimateFromMatrix(pd, t.trace.SampleRate, &cfg)
		})
		meanErr = meanAbsErr(trials, func(t ablationTrial) (float64, error) {
			pd, err := core.ExtractPhaseDifference(t.trace, 0, 1)
			if err != nil {
				return 0, err
			}
			// Mean removal only, then downsample — no Hampel stages.
			matrix := make([][]float64, len(pd))
			for i, series := range pd {
				down, derr := dsp.Downsample(dsp.RemoveMean(series), cfg.DownsampleFactor)
				if derr != nil {
					return 0, derr
				}
				matrix[i] = down
			}
			sel, serr := core.SelectSubcarrier(matrix, core.TopK, nil)
			if serr != nil {
				return 0, serr
			}
			estRate := t.trace.SampleRate / float64(cfg.DownsampleFactor)
			bands, derr := core.DenoiseDWT(matrix[sel.Selected], estRate, &cfg)
			if derr != nil {
				return 0, derr
			}
			est, eerr := core.EstimateBreathingPeaks(bands.Breathing, estRate)
			if eerr != nil {
				return 0, eerr
			}
			return est.RateBPM, nil
		})
	}
	b.ReportMetric(hampelErr, "hampelErrBPM")
	b.ReportMetric(meanErr, "meanRemovalErrBPM")
}

// BenchmarkAblationSubcarrierSelection compares the paper's median-of-top-k
// rule against a fixed subcarrier and against the raw MAD maximum.
func BenchmarkAblationSubcarrierSelection(b *testing.B) {
	trials := ablationTraces(b, 4, false)
	cfg := core.DefaultConfig()
	variant := func(pick func(calibrated [][]float64) (int, error)) func(ablationTrial) (float64, error) {
		return func(t ablationTrial) (float64, error) {
			pd, err := core.ExtractPhaseDifference(t.trace, 0, 1)
			if err != nil {
				return 0, err
			}
			calibrated, err := core.Calibrate(pd, &cfg)
			if err != nil {
				return 0, err
			}
			idx, err := pick(calibrated)
			if err != nil {
				return 0, err
			}
			estRate := t.trace.SampleRate / float64(cfg.DownsampleFactor)
			bands, err := core.DenoiseDWT(calibrated[idx], estRate, &cfg)
			if err != nil {
				return 0, err
			}
			est, err := core.EstimateBreathingPeaks(bands.Breathing, estRate)
			if err != nil {
				return 0, err
			}
			return est.RateBPM, nil
		}
	}
	var medianErr, fixedErr, maxErr float64
	for i := 0; i < b.N; i++ {
		medianErr = meanAbsErr(trials, variant(func(c [][]float64) (int, error) {
			sel, err := core.SelectSubcarrier(c, core.TopK, nil)
			if err != nil {
				return 0, err
			}
			return sel.Selected, nil
		}))
		fixedErr = meanAbsErr(trials, variant(func(c [][]float64) (int, error) { return 0, nil }))
		maxErr = meanAbsErr(trials, variant(func(c [][]float64) (int, error) {
			sel, err := core.SelectSubcarrier(c, 1, nil)
			if err != nil {
				return 0, err
			}
			return sel.Selected, nil
		}))
	}
	b.ReportMetric(medianErr, "medianTopKErrBPM")
	b.ReportMetric(fixedErr, "fixedSubErrBPM")
	b.ReportMetric(maxErr, "maxMADErrBPM")
}

// BenchmarkAblationDWTVsFIR compares wavelet denoising against a direct
// FIR band-pass for the breathing band.
func BenchmarkAblationDWTVsFIR(b *testing.B) {
	trials := ablationTraces(b, 4, false)
	cfg := core.DefaultConfig()
	var dwtErr, firErr float64
	for i := 0; i < b.N; i++ {
		dwtErr = meanAbsErr(trials, func(t ablationTrial) (float64, error) {
			res, err := ProcessTrace(t.trace)
			if err != nil || res.Breathing == nil {
				return 0, errFrom(err)
			}
			return res.Breathing.RateBPM, nil
		})
		firErr = meanAbsErr(trials, func(t ablationTrial) (float64, error) {
			pd, err := core.ExtractPhaseDifference(t.trace, 0, 1)
			if err != nil {
				return 0, err
			}
			calibrated, err := core.Calibrate(pd, &cfg)
			if err != nil {
				return 0, err
			}
			sel, err := core.SelectSubcarrier(calibrated, core.TopK, nil)
			if err != nil {
				return 0, err
			}
			estRate := t.trace.SampleRate / float64(cfg.DownsampleFactor)
			bp, err := dsp.BandPassFIR(core.BreathBandLow*0.8, core.BreathBandHigh*1.1, estRate, 161)
			if err != nil {
				return 0, err
			}
			breathing := bp.Apply(calibrated[sel.Selected])
			est, err := core.EstimateBreathingPeaks(breathing, estRate)
			if err != nil {
				return 0, err
			}
			return est.RateBPM, nil
		})
	}
	b.ReportMetric(dwtErr, "dwtErrBPM")
	b.ReportMetric(firErr, "firErrBPM")
}

// BenchmarkAblationPeakVsFFT compares the paper's peak detection against a
// plain FFT peak for single-person breathing.
func BenchmarkAblationPeakVsFFT(b *testing.B) {
	trials := ablationTraces(b, 4, false)
	var peakErr, fftErr float64
	for i := 0; i < b.N; i++ {
		peakErr = meanAbsErr(trials, func(t ablationTrial) (float64, error) {
			res, err := ProcessTrace(t.trace)
			if err != nil || res.Breathing == nil {
				return 0, errFrom(err)
			}
			return res.Breathing.RateBPM, nil
		})
		fftErr = meanAbsErr(trials, func(t ablationTrial) (float64, error) {
			res, err := ProcessTrace(t.trace)
			if err != nil || res.Bands == nil {
				return 0, errFrom(err)
			}
			est, err := core.EstimateBreathingFFT(res.Bands.Breathing, res.EstimationRate)
			if err != nil {
				return 0, err
			}
			return est.RateBPM, nil
		})
	}
	b.ReportMetric(peakErr, "peakErrBPM")
	b.ReportMetric(fftErr, "fftErrBPM")
}

// --- micro-benchmarks on the hot paths ------------------------------------

func BenchmarkPipelineProcess60s(b *testing.B) {
	sim, err := csisim.FixedRatesScenario([]float64{16}, 9)
	if err != nil {
		b.Fatal(err)
	}
	tr, err := sim.Generate(60)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ProcessTrace(tr); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimulatorGenerate60s(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sim, err := csisim.FixedRatesScenario([]float64{16}, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sim.Generate(60); err != nil {
			b.Fatal(err)
		}
	}
}

func errFrom(err error) error {
	if err != nil {
		return err
	}
	return ErrNoData
}

// BenchmarkAblationAmplitudeGate quantifies the subcarrier SNR gate: the
// full pipeline (gated) against the same pipeline with the gate disabled,
// over a trial set that includes a deep frequency-selective fade (seed
// 101's antenna B fades exactly at the most MAD-sensitive subcarriers).
func BenchmarkAblationAmplitudeGate(b *testing.B) {
	var trials []ablationTrial
	for _, seed := range []int64{101, 500, 597, 694} {
		sim, err := csisim.Scenario{
			Kind:          csisim.ScenarioLaboratory,
			TxRxDistanceM: 3,
			NumPersons:    1,
			Seed:          seed,
		}.Build()
		if err != nil {
			b.Fatal(err)
		}
		tr, err := sim.Generate(60)
		if err != nil {
			b.Fatal(err)
		}
		trials = append(trials, ablationTrial{trace: tr, truth: sim.Truth()[0]})
	}
	cfg := core.DefaultConfig()
	var gatedErr, ungatedErr float64
	for i := 0; i < b.N; i++ {
		gatedErr = meanAbsErr(trials, func(t ablationTrial) (float64, error) {
			res, err := ProcessTrace(t.trace)
			if err != nil || res.Breathing == nil {
				return 0, errFrom(err)
			}
			return res.Breathing.RateBPM, nil
		})
		ungatedErr = meanAbsErr(trials, func(t ablationTrial) (float64, error) {
			pd, err := core.ExtractPhaseDifference(t.trace, 0, 1)
			if err != nil {
				return 0, err
			}
			return estimateFromMatrix(pd, t.trace.SampleRate, &cfg)
		})
	}
	b.ReportMetric(gatedErr, "gatedErrBPM")
	b.ReportMetric(ungatedErr, "ungatedErrBPM")
}
