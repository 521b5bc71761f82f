package core

import (
	"fmt"
	"math"

	"phasebeat/internal/dsp"
)

// HeartEstimate is the heart-rate result.
type HeartEstimate struct {
	// RateBPM is the estimated heart rate in beats per minute.
	RateBPM float64
	// PeakFrequencyHz is the coarse FFT peak before refinement.
	PeakFrequencyHz float64
	// Method names the estimator ("fft+phase" or "fft").
	Method string
}

// EstimateHeartRate estimates the heart rate from the wavelet heart-band
// signal (β_{L-1}+β_L reconstruction, sampled at fs). Following the paper,
// it finds the FFT peak in the heart band and refines it with the
// Vital-Radio 3-bin inverse-FFT phase method. breathingHz, when positive,
// lets the peak search skip spectral lines that sit exactly on low-order
// breathing harmonics — the dominant interference in the heart band.
func EstimateHeartRate(heart []float64, fs, breathingHz float64) (*HeartEstimate, error) {
	if len(heart) == 0 {
		return nil, fmt.Errorf("%w: empty heart signal", ErrNoData)
	}
	sig := dsp.RemoveMean(heart)
	pad := dsp.NextPowerOfTwo(len(sig) * 4)
	sp, err := dsp.MagnitudeSpectrum(sig, fs, pad)
	if err != nil {
		return nil, fmt.Errorf("core: heart spectrum: %w", err)
	}

	coarse, ok := pickHeartPeak(sp, breathingHz)
	if !ok {
		return nil, fmt.Errorf("%w: no usable peak in heart band [%v, %v] Hz",
			ErrNoData, HeartBandLow, HeartBandHigh)
	}

	// Refine near the chosen coarse peak only, so the 3-bin phase method
	// cannot re-lock onto a rejected harmonic elsewhere in the band.
	lo := math.Max(HeartBandLow, coarse-0.1)
	hi := math.Min(HeartBandHigh, coarse+0.1)
	refined, err := dsp.RefineFrequencyPhase(sig, fs, lo, hi, pad)
	if err != nil || refined < lo || refined > hi {
		return &HeartEstimate{RateBPM: coarse * 60, PeakFrequencyHz: coarse, Method: "fft"}, nil
	}
	return &HeartEstimate{RateBPM: refined * 60, PeakFrequencyHz: coarse, Method: "fft+phase"}, nil
}

// pickHeartPeak returns the interpolated frequency of the best heart-band
// candidate. Local maxima that coincide with a low-order breathing
// harmonic are skipped — unless the strongest non-harmonic alternative is
// much weaker (< 40% of the harmonic-coincident line), in which case the
// strong line is accepted: a heart rate sitting exactly on 2·f_b or 3·f_b
// is common physiology (e.g. 18 bpm breathing, 72 bpm heart), and a pure
// breathing harmonic is never that dominant over the rest of the band.
func pickHeartPeak(sp *dsp.Spectrum, breathingHz float64) (float64, bool) {
	peaks := sp.TopPeaksDetailed(HeartBandLow, HeartBandHigh, 8)
	if len(peaks) == 0 {
		return sp.PeakFrequency(HeartBandLow, HeartBandHigh)
	}
	var nonHarmonic *dsp.SpectralPeak
	for i := range peaks {
		if breathingHz > 0 && nearHarmonic(peaks[i].Freq, breathingHz) {
			continue
		}
		nonHarmonic = &peaks[i]
		break
	}
	switch {
	case nonHarmonic == nil:
		// Every local maximum coincided with a harmonic: the strongest one
		// is the best heart guess available.
		return peaks[0].Freq, true
	case nonHarmonic.Mag < 0.4*peaks[0].Mag:
		// The harmonic-coincident line dwarfs everything else — treat it
		// as the heart riding on (or near) a harmonic.
		return peaks[0].Freq, true
	default:
		return nonHarmonic.Freq, true
	}
}

// nearHarmonic reports whether f lies within the tight guard band of a
// low-order (2 <= k <= 3) multiple of fb. k=1 is excluded: the breathing
// fundamental is below the heart band whenever breathing is physiological.
func nearHarmonic(f, fb float64) bool {
	if fb <= 0 {
		return false
	}
	k := math.Round(f / fb)
	if k < 2 || k > 3 {
		return false
	}
	guard := math.Max(0.02, 0.012*k)
	return math.Abs(f-k*fb) < guard
}
