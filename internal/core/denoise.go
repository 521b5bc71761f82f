package core

import (
	"fmt"

	"phasebeat/internal/dsp"
	"phasebeat/internal/wavelet"
)

// DWTBands holds the wavelet-denoised signals PhaseBeat derives from the
// selected subcarrier.
type DWTBands struct {
	// Breathing is the full-rate reconstruction from the level-L
	// approximation α_L (0 – fs/2^(L+1) Hz).
	Breathing []float64
	// Heart is the full-rate reconstruction from the detail sum
	// β_{L-1} + β_L (fs/2^(L+1) – fs/2^(L-1) Hz).
	Heart []float64
	// Decomposition exposes the raw coefficients for inspection (Fig. 6).
	Decomposition *wavelet.Decomposition
}

// DenoiseDWT decomposes the calibrated series (sampled at fs Hz) with the
// paper's Daubechies wavelet at level L and reconstructs the breathing and
// heart bands.
func DenoiseDWT(series []float64, fs float64) (*DWTBands, error) {
	w, err := wavelet.Daubechies(waveletOrder)
	if err != nil {
		return nil, fmt.Errorf("core: wavelet: %w", err)
	}
	level := waveletLevel
	if maxL := wavelet.MaxLevel(len(series), w.Len()); level > maxL {
		if maxL < 1 {
			return nil, fmt.Errorf("%w: %d samples cannot support a DWT with %s",
				ErrNoData, len(series), w.Name)
		}
		level = maxL
	}
	dec, err := wavelet.Wavedec(series, w, waveletMode, level)
	if err != nil {
		return nil, fmt.Errorf("core: wavedec: %w", err)
	}
	breathing, err := dec.ReconstructApprox()
	if err != nil {
		return nil, fmt.Errorf("core: breathing band: %w", err)
	}

	// Heart band from a second decomposition of the breathing-suppressed
	// series. Reconstructing β_{L-1}+β_L directly from the first
	// decomposition breaks the filter bank's alias cancellation: the
	// breathing fundamental (orders of magnitude stronger than the heart
	// line) leaks through the level-L analysis high-pass and its decimated
	// image reappears mid-heart-band (e.g. a 0.45 Hz breath imaging to
	// 1.25-0.45 = 0.80 Hz). The same imaging afflicts the single-band α_L
	// reconstruction, so subtracting it would re-inject the artifact;
	// instead a zero-phase FIR high-pass (double pass, ~-60 dB below the
	// band) on the clean calibrated series removes the breathing energy
	// before the detail channels ever see it.
	residual := suppressBreathingLeakage(series, fs)
	dec2, err := wavelet.Wavedec(residual, w, waveletMode, level)
	if err != nil {
		return nil, fmt.Errorf("core: residual wavedec: %w", err)
	}
	var heart []float64
	if level >= 2 {
		heart, err = dec2.ReconstructDetails(level-1, level)
	} else {
		heart, err = dec2.ReconstructDetails(level)
	}
	if err != nil {
		return nil, fmt.Errorf("core: heart band: %w", err)
	}
	return &DWTBands{Breathing: breathing, Heart: heart, Decomposition: dec}, nil
}

// suppressBreathingLeakage high-passes the residual just below the heart
// band with a zero-phase windowed-sinc FIR (~-53 dB stopband). The tap
// count adapts to short segments; if no valid filter fits, the residual is
// returned unchanged.
func suppressBreathingLeakage(residual []float64, fs float64) []float64 {
	taps := 201
	if limit := len(residual)/3 | 1; limit < taps {
		taps = limit
	}
	if taps < 31 {
		return residual
	}
	cutoff := HeartBandLow * 0.92
	hp, err := dsp.HighPassFIR(cutoff, fs, taps)
	if err != nil {
		return residual
	}
	// Two passes square the response: the windowed-sinc transition band is
	// ~3.3·fs/taps wide, so a breath just below the cutoff only sees a few
	// dB of single-pass attenuation — not enough against a line orders of
	// magnitude above the heart.
	return hp.Apply(hp.Apply(residual))
}
