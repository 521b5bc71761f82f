// Package baseline implements the CSI-amplitude-based vital sign tracking
// method of Liu et al. (MobiHoc'15), reference [13] of the PhaseBeat paper
// — the comparison system in Fig. 11. It follows the published description:
// per-subcarrier amplitude extraction, outlier removal with a Hampel
// filter, moving-average smoothing, subcarrier selection by breathing-band
// periodicity, and peak-detection rate estimation.
package baseline

import (
	"errors"
	"fmt"
	"math"
	"math/cmplx"

	"phasebeat/internal/dsp"
	"phasebeat/internal/trace"
)

// ErrNoData reports an empty or unusable input trace.
var ErrNoData = errors.New("baseline: not enough data")

// The amplitude method's settings. The raw-rate windows are the 400 Hz
// values; EstimateBreathing scales them to the trace's rate so the
// estimation rate stays near 20 Hz.
const (
	// antenna is the receive antenna whose amplitudes are used.
	antenna = 0
	// hampelWindow400 and hampelSigma control the outlier filter.
	hampelWindow400 = 50
	hampelSigma     = 3
	// smoothWindow400 is the moving-average length at 400 Hz.
	smoothWindow400 = 80
	// estimationRate is the rate the downsample factor aims for, in Hz.
	estimationRate = 20.0
	// peakWindow and peakMinDistance control breathing peak detection at
	// the estimation rate.
	peakWindow, peakMinDistance = 51, 35
	// breathBandLow/High bound the breathing band in Hz.
	breathBandLow, breathBandHigh = 0.17, 0.62
)

// Estimate is the amplitude method's output.
type Estimate struct {
	// BreathingBPM is the estimated breathing rate.
	BreathingBPM float64
	// Subcarrier is the selected subcarrier index.
	Subcarrier int
}

// EstimateBreathing runs the amplitude pipeline on a trace. A packet whose
// shape differs from the trace's is an error naming the packet.
func EstimateBreathing(tr *trace.Trace) (*Estimate, error) {
	if tr == nil || tr.Len() == 0 {
		return nil, fmt.Errorf("%w: empty trace", ErrNoData)
	}
	if !(tr.SampleRate > 0) {
		return nil, fmt.Errorf("baseline: sample rate %v Hz", tr.SampleRate)
	}
	if antenna >= tr.NumAntennas {
		return nil, fmt.Errorf("baseline: antenna %d outside [0, %d)", antenna, tr.NumAntennas)
	}
	for k, p := range tr.Packets {
		if len(p.CSI) != tr.NumAntennas || len(p.CSI[antenna]) != tr.NumSubcarriers {
			return nil, fmt.Errorf("baseline: packet %d does not have the trace's %d antennas × %d subcarriers",
				k, tr.NumAntennas, tr.NumSubcarriers)
		}
	}
	scale := tr.SampleRate / 400.0
	hampelWindow := max(3, int(hampelWindow400*scale))
	smoothWindow := max(3, int(smoothWindow400*scale))
	factor := max(1, int(tr.SampleRate/estimationRate))
	estRate := tr.SampleRate / float64(factor)

	// Calibrate every subcarrier's amplitude series.
	calibrated := make([][]float64, tr.NumSubcarriers)
	for s := 0; s < tr.NumSubcarriers; s++ {
		amp := make([]float64, tr.Len())
		for k, p := range tr.Packets {
			amp[k] = cmplx.Abs(p.CSI[antenna][s])
		}
		cleaned, err := dsp.Hampel(amp, hampelWindow, hampelSigma)
		if err != nil {
			return nil, fmt.Errorf("baseline: hampel: %w", err)
		}
		smoothed := dsp.MovingAverage(cleaned, smoothWindow)
		down, err := dsp.Downsample(smoothed, factor)
		if err != nil {
			return nil, fmt.Errorf("baseline: downsample: %w", err)
		}
		calibrated[s] = dsp.RemoveMean(dsp.DetrendLinear(down))
	}

	// Select the subcarrier whose breathing band is most periodic: the
	// highest in-band spectral peak relative to its total power.
	best, bestScore := -1, 0.0
	for s, series := range calibrated {
		score := periodicityScore(series, estRate, breathBandLow, breathBandHigh)
		if score > bestScore {
			best, bestScore = s, score
		}
	}
	if best < 0 {
		return nil, fmt.Errorf("%w: no periodic subcarrier", ErrNoData)
	}

	series := calibrated[best]
	peaks, err := dsp.FindPeaks(series, peakWindow, peakMinDistance)
	if err != nil {
		return nil, fmt.Errorf("baseline: peaks: %w", err)
	}
	if bpm, ok := dsp.RateFromPeaks(peaks, estRate); ok {
		// The amplitude method keeps the plain peak estimate (no spectral
		// cross-check) as published.
		if bpm >= breathBandLow*60 && bpm <= breathBandHigh*60 {
			return &Estimate{BreathingBPM: bpm, Subcarrier: best}, nil
		}
	}
	f, err := dsp.DominantFrequency(series, estRate, breathBandLow, breathBandHigh, 4096)
	if err != nil {
		return nil, fmt.Errorf("baseline: %w", err)
	}
	return &Estimate{BreathingBPM: f * 60, Subcarrier: best}, nil
}

// periodicityScore measures how concentrated the breathing-band spectrum
// is: peak bin power over mean in-band power.
func periodicityScore(series []float64, fs, fLo, fHi float64) float64 {
	sp, err := dsp.MagnitudeSpectrum(series, fs, dsp.NextPowerOfTwo(len(series)*2))
	if err != nil {
		return 0
	}
	peak := sp.PeakBin(fLo, fHi)
	if peak < 0 {
		return 0
	}
	var sum float64
	var n int
	for k, f := range sp.Freqs {
		if f >= fLo && f <= fHi {
			sum += sp.Mag[k]
			n++
		}
	}
	if n == 0 || sum == 0 {
		return 0
	}
	mean := sum / float64(n)
	if mean == 0 {
		return 0
	}
	if math.IsNaN(sp.Mag[peak] / mean) {
		return 0
	}
	return sp.Mag[peak] / mean
}
