package core

import (
	"fmt"
	"math"
	"sort"

	"phasebeat/internal/dsp"
	"phasebeat/internal/music"
)

// BreathingEstimate is the single-person breathing result.
type BreathingEstimate struct {
	// RateBPM is the estimated breathing rate in breaths per minute.
	RateBPM float64
	// Peaks holds the detected breathing peaks (peak-detection method
	// only).
	Peaks []dsp.Peak
	// Method names the estimator used ("peaks" or "fft").
	Method string
}

// EstimateBreathingPeaks estimates the breathing rate from the denoised
// breathing signal (sampled at fs) with PhaseBeat's sliding-window peak
// detection: identify true peaks, average the peak-to-peak intervals into
// the period P, and report 60/P bpm.
func EstimateBreathingPeaks(breathing []float64, fs float64) (*BreathingEstimate, error) {
	if len(breathing) == 0 {
		return nil, fmt.Errorf("%w: empty breathing signal", ErrNoData)
	}
	peaks, err := dsp.FindPeaks(breathing, peakWindow, peakMinDistance)
	if err != nil {
		return nil, fmt.Errorf("core: peak detection: %w", err)
	}
	bpm, ok := dsp.RateFromPeaks(peaks, fs)
	if !ok {
		// Too few peaks for an interval estimate — fall back to the FFT
		// path rather than failing (short segments).
		est, ferr := EstimateBreathingFFT(breathing, fs)
		if ferr != nil {
			return nil, fmt.Errorf("core: %d peaks and FFT fallback failed: %w", len(peaks), ferr)
		}
		est.Peaks = peaks
		return est, nil
	}
	// Consistency vote: peak counting can halve or double the rate on a
	// weak signal, and the FFT can lock onto a detrending artifact for
	// very slow breathers. A third, independent estimate from the
	// autocorrelation period arbitrates: the peak estimate wins if either
	// of the other two agrees with it; otherwise the FFT and the
	// autocorrelation vote between themselves.
	const agree = 0.12 // relative agreement threshold
	fftBPM := math.NaN()
	if coarse, err := EstimateBreathingFFT(breathing, fs); err == nil {
		fftBPM = coarse.RateBPM
	}
	acBPM, acOK := autocorrRate(breathing, fs)
	close := func(a, b float64) bool {
		return !math.IsNaN(a) && !math.IsNaN(b) && math.Abs(a-b) <= agree*math.Max(a, b)
	}
	switch {
	case close(bpm, fftBPM) || (acOK && close(bpm, acBPM)):
		return &BreathingEstimate{RateBPM: bpm, Peaks: peaks, Method: "peaks"}, nil
	case acOK && close(fftBPM, acBPM):
		return &BreathingEstimate{RateBPM: fftBPM, Peaks: peaks, Method: "fft-guard"}, nil
	case acOK:
		return &BreathingEstimate{RateBPM: acBPM, Peaks: peaks, Method: "autocorr-guard"}, nil
	case !math.IsNaN(fftBPM):
		return &BreathingEstimate{RateBPM: fftBPM, Peaks: peaks, Method: "fft-guard"}, nil
	default:
		return &BreathingEstimate{RateBPM: bpm, Peaks: peaks, Method: "peaks"}, nil
	}
}

// autocorrRate estimates the breathing rate from the largest
// autocorrelation value over the breathing band's lag range, refined by
// parabolic interpolation. It reports false when no lag there exceeds
// 0.25, the minimum normalized autocorrelation taken as periodicity.
func autocorrRate(breathing []float64, fs float64) (float64, bool) {
	minLag := int(fs / BreathBandHigh)
	maxLag := int(fs / BreathBandLow)
	if maxLag >= len(breathing) {
		maxLag = len(breathing) - 1
	}
	if minLag < 2 || maxLag <= minLag {
		return 0, false
	}
	ac := dsp.Autocorrelation(breathing, maxLag)
	best, bestVal := -1, 0.25 // require meaningful periodicity
	for lag := minLag; lag <= maxLag; lag++ {
		if ac[lag] > bestVal {
			best, bestVal = lag, ac[lag]
		}
	}
	if best < 0 {
		return 0, false
	}
	// Parabolic refinement of the autocorrelation peak.
	lag := float64(best)
	if best > 0 && best < maxLag {
		lag += dsp.QuadraticInterpolate(ac[best-1], ac[best], ac[best+1])
	}
	if lag <= 0 {
		return 0, false
	}
	return 60 * fs / lag, true
}

// EstimateBreathingFFT estimates the breathing rate from the strongest
// spectral peak in the breathing band — the baseline the paper argues has
// limited resolution at practical window sizes.
func EstimateBreathingFFT(breathing []float64, fs float64) (*BreathingEstimate, error) {
	f, err := dsp.DominantFrequency(breathing, fs, BreathBandLow, BreathBandHigh, 4096)
	if err != nil {
		return nil, fmt.Errorf("core: breathing FFT: %w", err)
	}
	return &BreathingEstimate{RateBPM: f * 60, Method: "fft"}, nil
}

// MultiPersonEstimate is the multi-person breathing result.
type MultiPersonEstimate struct {
	// RatesBPM holds one breathing rate per person, ascending.
	RatesBPM []float64
	// Method names the estimator ("root-music", "root-music-1", "fft").
	Method string
}

// EstimateBreathingMultiRootMUSIC estimates nPersons breathing rates from
// the calibrated phase-difference matrix (all 30 subcarriers, sampled at
// fs) using the paper's root-MUSIC method: the subcarrier series act as
// snapshots for the temporal correlation matrix R̂ = H Hᵀ (eq. (11)).
func EstimateBreathingMultiRootMUSIC(calibrated [][]float64, fs float64, nPersons int) (*MultiPersonEstimate, error) {
	if nPersons < 1 {
		return nil, fmt.Errorf("core: person count %d < 1", nPersons)
	}
	series, musicFs, err := prepareMusicSeries(calibrated, fs)
	if err != nil {
		return nil, err
	}
	freqs, err := music.EstimateFrequencies(series, nPersons, musicFs, music.CorrelationOptions{
		WindowLen:       musicWindow,
		ForwardBackward: true,
		DiagonalLoad:    1e-6,
	})
	if err != nil {
		return nil, fmt.Errorf("core: root-MUSIC: %w", err)
	}
	rates := make([]float64, len(freqs))
	for i, f := range freqs {
		rates[i] = f * 60
	}
	sort.Float64s(rates)
	method := "root-music"
	if len(series) == 1 {
		method = "root-music-1"
	}
	return &MultiPersonEstimate{RatesBPM: rates, Method: method}, nil
}

// EstimateBreathingMultiESPRIT estimates nPersons breathing rates with
// least-squares ESPRIT over the same band-limited, decimated correlation
// front end as the root-MUSIC path — an alternative subspace backend with
// no spectral search and no high-degree polynomial rooting.
func EstimateBreathingMultiESPRIT(calibrated [][]float64, fs float64, nPersons int) (*MultiPersonEstimate, error) {
	if nPersons < 1 {
		return nil, fmt.Errorf("core: person count %d < 1", nPersons)
	}
	series, musicFs, err := prepareMusicSeries(calibrated, fs)
	if err != nil {
		return nil, err
	}
	freqs, err := music.EstimateFrequenciesESPRIT(series, nPersons, musicFs, music.CorrelationOptions{
		WindowLen:       musicWindow,
		ForwardBackward: true,
		DiagonalLoad:    1e-6,
	})
	if err != nil {
		return nil, fmt.Errorf("core: ESPRIT: %w", err)
	}
	rates := make([]float64, len(freqs))
	for i, f := range freqs {
		rates[i] = f * 60
	}
	sort.Float64s(rates)
	return &MultiPersonEstimate{RatesBPM: rates, Method: "esprit"}, nil
}

// EstimateBreathingMultiFFT estimates nPersons breathing rates as the
// nPersons highest spectral peaks of the selected subcarrier — the
// baseline that fails for close rates (Fig. 8).
func EstimateBreathingMultiFFT(breathing []float64, fs float64, nPersons int) (*MultiPersonEstimate, error) {
	if nPersons < 1 {
		return nil, fmt.Errorf("core: person count %d < 1", nPersons)
	}
	padded := dsp.NextPowerOfTwo(len(breathing) * 4)
	sp, err := dsp.MagnitudeSpectrum(dsp.RemoveMean(breathing), fs, padded)
	if err != nil {
		return nil, fmt.Errorf("core: multi-person FFT: %w", err)
	}
	peaks := sp.TopPeaks(BreathBandLow, BreathBandHigh, nPersons)
	if len(peaks) == 0 {
		return nil, fmt.Errorf("%w: no spectral peaks in breathing band", ErrNoData)
	}
	rates := make([]float64, len(peaks))
	for i, f := range peaks {
		rates[i] = f * 60
	}
	sort.Float64s(rates)
	return &MultiPersonEstimate{RatesBPM: rates, Method: "fft"}, nil
}

// prepareMusicSeries band-limits, decimates and mean-removes the
// calibrated matrix for subspace estimation. The bandpass matters: any
// residual trend below the breathing band otherwise dominates the
// correlation matrix and the signal subspace locks onto it instead of the
// breathing sinusoids.
func prepareMusicSeries(calibrated [][]float64, fs float64) ([][]float64, float64, error) {
	if len(calibrated) == 0 || len(calibrated[0]) == 0 {
		return nil, 0, fmt.Errorf("%w: empty calibrated matrix", ErrNoData)
	}
	taps := 161
	if limit := len(calibrated[0])/3 | 1; limit < taps {
		taps = limit
	}
	var bp *dsp.FIRFilter
	if taps >= 31 {
		f, err := dsp.BandPassFIR(BreathBandLow*0.8, BreathBandHigh*1.05, fs, taps)
		if err == nil {
			bp = f
		}
	}
	out := make([][]float64, len(calibrated))
	for i, series := range calibrated {
		filtered := series
		if bp != nil {
			filtered = bp.Apply(series)
		}
		dec, err := dsp.Decimate(filtered, musicDecimate)
		if err != nil {
			return nil, 0, fmt.Errorf("core: MUSIC decimate: %w", err)
		}
		out[i] = dsp.RemoveMean(dec)
	}
	musicFs := fs / musicDecimate
	if len(out[0]) < musicWindow+1 {
		return nil, 0, fmt.Errorf("%w: %d samples after decimation, need > %d",
			ErrNoData, len(out[0]), musicWindow)
	}
	return out, musicFs, nil
}
