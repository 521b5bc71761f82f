package core

import "phasebeat/internal/dsp"

// Stage evidence: compact, JSON-marshalable records of what each stage saw
// and decided, attached to StageStats.Evidence. Evidence is only computed
// when a StrideSink is configured (Config.Sink), so the live observer,
// the metrics and the disabled path pay nothing for it.

// CalibrationEvidence is the smoothing stage's evidence: how much trend
// (plus outlier energy) the two Hampel passes removed, averaged over every
// sample of every subcarrier. A sudden growth means the phase difference
// drifted hard during the window — motion, thermal recalibration, or a
// reference glitch — and the calibrated data should be read with care.
type CalibrationEvidence struct {
	// TrendMagnitude is mean |raw − smoothed| in radians over the window.
	TrendMagnitude float64 `json:"trend_magnitude"`
}

// GateEvidence is the amplitude-gate stage's evidence.
type GateEvidence struct {
	// Fallback is true when the gate rejected every subcarrier and the
	// pipeline proceeded ungated.
	Fallback bool `json:"fallback"`
	// Rejected counts the gated-out subcarriers; Total is the subcarrier
	// count the gate examined.
	Rejected int `json:"rejected"`
	Total    int `json:"total"`
}

// SelectionEvidence is the subcarrier-selection stage's evidence: the full
// per-subcarrier MAD ranking behind the choice (Fig. 7), so "why did it
// pick subcarrier 17" is answerable from the trace alone.
type SelectionEvidence struct {
	// MAD holds every subcarrier's mean absolute deviation.
	MAD []float64 `json:"mad"`
	// TopK lists the k highest-MAD eligible subcarriers, descending.
	TopK []int `json:"top_k"`
	// Selected is the chosen (median-MAD of TopK) subcarrier.
	Selected int `json:"selected"`
	// GateFallback and Rejected mirror SubcarrierSelection's gate
	// diagnostics.
	GateFallback bool `json:"gate_fallback"`
	Rejected     int  `json:"rejected"`
}

// DWTEvidence is the wavelet stage's evidence: the mean-square energy of
// the two band reconstructions. The breathing band (α_L) should dominate
// the heart band (β_{L-1}+β_L) by orders of magnitude on a live subject; a
// collapsed ratio flags a window where the estimate rests on noise.
type DWTEvidence struct {
	// BreathingEnergy is the mean square of the breathing-band signal.
	BreathingEnergy float64 `json:"breathing_energy"`
	// HeartEnergy is the mean square of the heart-band signal.
	HeartEnergy float64 `json:"heart_energy"`
}

// SpectrumPeak is one local maximum of the breathing-band spectrum as
// recorded in EstimateEvidence.
type SpectrumPeak struct {
	// FreqHz is the interpolated peak frequency; BPM is the same in
	// breaths per minute.
	FreqHz float64 `json:"freq_hz"`
	BPM    float64 `json:"bpm"`
	// Magnitude is the peak bin magnitude.
	Magnitude float64 `json:"magnitude"`
}

// EstimateEvidence is the estimation stage's evidence: the spectral
// context of the final BPM with a signal-quality score attached.
type EstimateEvidence struct {
	// Peaks lists the strongest breathing-band spectral peaks, descending
	// by magnitude.
	Peaks []SpectrumPeak `json:"peaks,omitempty"`
	// SNR is the linear power ratio of the strongest breathing-band peak
	// over the median band power — how far the chosen line stands above
	// the spectral floor it was picked from.
	SNR float64 `json:"snr"`
	// Confidence maps SNR into [0, 1): SNR/(SNR+confidenceHalfSNR), so 0.5
	// means the peak carries confidenceHalfSNR× the median band power. A
	// heuristic quality score, not a calibrated probability.
	Confidence float64 `json:"confidence"`
	// BreathingBPM is the final single-person estimate (0 when the run
	// produced only multi-person rates); RatesBPM the multi-person rates.
	BreathingBPM float64   `json:"breathing_bpm,omitempty"`
	RatesBPM     []float64 `json:"rates_bpm,omitempty"`
	// Estimator names the backend/method that produced the estimate.
	Estimator string `json:"estimator,omitempty"`
}

// confidenceHalfSNR is the SNR at which EstimateEvidence.Confidence
// reads 0.5.
const confidenceHalfSNR = 25.0

// meanSquare returns the mean squared value of x (zero when empty).
func meanSquare(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	var sum float64
	for _, v := range x {
		sum += v * v
	}
	return sum / float64(len(x))
}

// newEstimateEvidence builds the estimation stage's evidence from the
// breathing-band signal and the finished Result. Spectrum failures (too
// few samples) degrade to evidence without peaks rather than erroring: the
// evidence channel must never fail a run that the estimate itself passed.
func newEstimateEvidence(in *EstimatorInput, res *Result) *EstimateEvidence {
	ev := &EstimateEvidence{}
	switch {
	case res.Breathing != nil:
		ev.BreathingBPM = res.Breathing.RateBPM
		ev.Estimator = res.Breathing.Method
	case res.MultiPerson != nil:
		ev.RatesBPM = append([]float64(nil), res.MultiPerson.RatesBPM...)
		ev.Estimator = res.MultiPerson.Method
	}
	if len(in.Breathing) == 0 {
		return ev
	}
	sp, err := dsp.MagnitudeSpectrum(dsp.RemoveMean(in.Breathing), in.Rate,
		dsp.NextPowerOfTwo(len(in.Breathing)*4))
	if err != nil {
		return ev
	}
	for _, p := range sp.TopPeaksDetailed(BreathBandLow, BreathBandHigh, 5) {
		ev.Peaks = append(ev.Peaks, SpectrumPeak{FreqHz: p.Freq, BPM: p.Freq * 60, Magnitude: p.Mag})
	}
	ev.SNR = bandPeakSNR(sp, BreathBandLow, BreathBandHigh)
	ev.Confidence = ev.SNR / (ev.SNR + confidenceHalfSNR)
	return ev
}

// bandPeakSNR returns the power of the strongest bin in [fLo, fHi] over
// the median bin power of the band (zero when the band is empty or
// silent). Median rather than mean keeps the floor estimate insensitive to
// the peak itself and to a handful of harmonics.
func bandPeakSNR(sp *dsp.Spectrum, fLo, fHi float64) float64 {
	var powers []float64
	for k, f := range sp.Freqs {
		if f < fLo || f > fHi {
			continue
		}
		powers = append(powers, sp.Mag[k]*sp.Mag[k])
	}
	if len(powers) == 0 {
		return 0
	}
	peak := 0.0
	for _, p := range powers {
		if p > peak {
			peak = p
		}
	}
	floor := dsp.Median(powers)
	if floor <= 0 || peak <= 0 {
		return 0
	}
	return peak / floor
}
