// Package core implements the PhaseBeat system itself: CSI phase-difference
// extraction, environment detection, data calibration, subcarrier
// selection, wavelet denoising, and the breathing- and heart-rate
// estimators, composed into a batch Processor and a streaming Monitor.
package core

import (
	"errors"
	"fmt"
	"math/cmplx"

	"phasebeat/internal/dsp"
	"phasebeat/internal/trace"
)

// ErrNoData reports that the input trace is empty or too short.
var ErrNoData = errors.New("core: not enough data")

// ErrNotStationary reports that no stationary segment long enough for
// estimation was found (the person was moving or absent).
var ErrNotStationary = errors.New("core: no stationary segment")

// ErrNonFinite reports NaN/Inf input data (driver glitches, corrupt
// captures) detected at phase extraction, or an estimator output that
// came out non-finite. Process fails on a NaN or Inf cell on any antenna
// instead of letting it ride silently into a "successful" estimate; the
// streaming Monitor and TrackRates quarantine such packets before they
// reach the window.
var ErrNonFinite = errors.New("core: non-finite data")

// ExtractPhaseDifference computes the unwrapped CSI phase difference
// between two receive antennas for every subcarrier: the measured quantity
// of eq. (6), Δ∠CSI_i = ∠CSI_i^(a) − ∠CSI_i^(b), unwrapped over time.
// The result is indexed [subcarrier][packet]. The pipeline itself extracts
// inside its stride engine; this is the standalone form of the same
// computation, for analyses and as the engine's reference.
func ExtractPhaseDifference(tr *trace.Trace, antennaA, antennaB int) ([][]float64, error) {
	if err := checkAntennaPair(tr, antennaA, antennaB); err != nil {
		return nil, err
	}
	out := make([][]float64, tr.NumSubcarriers)
	series := make([]float64, tr.Len())
	for s := range out {
		for k, p := range tr.Packets {
			d := dsp.WrapPhase(cmplx.Phase(p.CSI[antennaA][s]) - cmplx.Phase(p.CSI[antennaB][s]))
			if d != d { // NaN CSI: unwrap would smear it across the window
				return nil, fmt.Errorf("%w: NaN phase difference at subcarrier %d packet %d", ErrNonFinite, s, k)
			}
			series[k] = d
		}
		// Rotate the series onto its circular mean before unwrapping: the
		// constant offset Δβ is arbitrary (Theorem 1), and a mean near ±π
		// would otherwise make measurement noise flip the wrap boundary
		// back and forth, turning the unwrapped series into a random walk
		// that floods the breathing band.
		out[s] = unwrapAboutMean(series, dsp.Circular(series).Mean, nil)
	}
	return out, nil
}

// checkAntennaPair rejects an empty trace and an antenna pair that is
// equal or outside the trace's antennas.
func checkAntennaPair(tr *trace.Trace, antennaA, antennaB int) error {
	if tr == nil || tr.Len() == 0 {
		return fmt.Errorf("%w: empty trace", ErrNoData)
	}
	if antennaA == antennaB {
		return fmt.Errorf("core: antenna pair must differ, got (%d, %d)", antennaA, antennaB)
	}
	if antennaA < 0 || antennaA >= tr.NumAntennas || antennaB < 0 || antennaB >= tr.NumAntennas {
		return fmt.Errorf("core: antenna pair (%d, %d) outside [0, %d)", antennaA, antennaB, tr.NumAntennas)
	}
	return nil
}

// unwrapAboutMean rotates the wrapped series onto mean, unwraps it into dst
// (grown as needed; must not alias series), and shifts the mean back — the
// exact operation sequence of ExtractPhaseDifference, shared with the
// stride engine so both produce bit-identical samples. series is
// clobbered.
func unwrapAboutMean(series []float64, mean float64, dst []float64) []float64 {
	for k, v := range series {
		series[k] = dsp.WrapPhase(v - mean)
	}
	dst = dsp.UnwrapPhaseInto(dst, series)
	for k := range dst {
		dst[k] += mean
	}
	return dst
}

// ExtractRawPhase returns the unwrapped single-antenna phase per
// subcarrier — unusable for sensing per Theorem 1, but needed for the
// Fig. 1 comparison and the phase-difference ablation.
func ExtractRawPhase(tr *trace.Trace, antenna int) ([][]float64, error) {
	if tr == nil || tr.Len() == 0 {
		return nil, fmt.Errorf("%w: empty trace", ErrNoData)
	}
	if antenna < 0 || antenna >= tr.NumAntennas {
		return nil, fmt.Errorf("core: antenna %d outside [0, %d)", antenna, tr.NumAntennas)
	}
	nSub := tr.NumSubcarriers
	out := make([][]float64, nSub)
	for s := 0; s < nSub; s++ {
		series := make([]float64, tr.Len())
		for k, p := range tr.Packets {
			series[k] = cmplx.Phase(p.CSI[antenna][s])
		}
		out[s] = dsp.UnwrapPhase(series)
	}
	return out, nil
}

// WrappedPhaseDifference returns the wrapped (not unwrapped) phase
// difference of a single subcarrier — the quantity plotted on Fig. 1's
// polar plot.
func WrappedPhaseDifference(tr *trace.Trace, antennaA, antennaB, subcarrier int) ([]float64, error) {
	if tr == nil || tr.Len() == 0 {
		return nil, fmt.Errorf("%w: empty trace", ErrNoData)
	}
	if subcarrier < 0 || subcarrier >= tr.NumSubcarriers {
		return nil, fmt.Errorf("core: subcarrier %d outside [0, %d)", subcarrier, tr.NumSubcarriers)
	}
	if antennaA < 0 || antennaA >= tr.NumAntennas || antennaB < 0 || antennaB >= tr.NumAntennas {
		return nil, fmt.Errorf("core: antenna pair (%d, %d) outside [0, %d)", antennaA, antennaB, tr.NumAntennas)
	}
	out := make([]float64, tr.Len())
	for k, p := range tr.Packets {
		out[k] = dsp.WrapPhase(cmplx.Phase(p.CSI[antennaA][subcarrier]) - cmplx.Phase(p.CSI[antennaB][subcarrier]))
	}
	return out, nil
}
