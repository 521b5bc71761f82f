package core

import (
	"fmt"

	"phasebeat/internal/wavelet"
)

// Config holds every tunable of the PhaseBeat pipeline. The zero value is
// not usable; start from DefaultConfig and override with the With* options.
type Config struct {
	// AntennaA and AntennaB are the receive antennas whose phase
	// difference is used.
	AntennaA, AntennaB int

	// TrendWindow is the large Hampel window (samples at the raw rate)
	// used to estimate and remove the DC trend. The paper uses 2000.
	TrendWindow int
	// SmoothWindow is the small Hampel window used to suppress
	// high-frequency outliers. The paper uses 50.
	SmoothWindow int
	// HampelThreshold is the Hampel nsigma threshold; the paper uses 0.01
	// so both filters act as running medians.
	HampelThreshold float64
	// TrendStride evaluates the trend median every TrendStride samples
	// with linear interpolation in between — a large speedup that loses
	// nothing because the trend is slow by construction. 1 disables.
	TrendStride int
	// DownsampleFactor reduces the raw rate for estimation; the paper
	// downsamples 400 Hz → 20 Hz with factor 20.
	DownsampleFactor int

	// EnvWindow is the sliding-window length (raw-rate samples) for the
	// environment-detection statistic V of eq. (8).
	EnvWindow int
	// EnvMinV and EnvMaxV bound the stationary band: V below EnvMinV means
	// no person; above EnvMaxV means large motion. The paper uses
	// [0.25, 6].
	EnvMinV, EnvMaxV float64
	// MinStationaryWindows is the minimum number of consecutive stationary
	// windows required before estimation is attempted.
	MinStationaryWindows int

	// TopK is the number of max-MAD subcarriers considered in selection;
	// the paper uses 3 and picks the median of those.
	TopK int

	// WaveletOrder is the Daubechies order (db4 by default) and
	// WaveletLevel the decomposition depth L (4 in the paper).
	WaveletOrder, WaveletLevel int
	// WaveletMode is the boundary extension mode.
	WaveletMode wavelet.ExtensionMode
	// UseSWT switches band extraction to the stationary (undecimated)
	// wavelet transform: shift-invariant and free of the aliasing images a
	// decimated single-band reconstruction produces, at 2× the cost per
	// level. Off by default to stay faithful to the paper's DWT.
	UseSWT bool

	// PeakWindow is the sliding window (downsampled-rate samples) for
	// breathing peak detection; the paper uses 51 (sized by the maximum
	// human breathing period).
	PeakWindow int
	// PeakMinDistance suppresses peaks closer than this many samples;
	// slightly under the minimum plausible breathing period.
	PeakMinDistance int

	// BreathBandLow/High bound the breathing search band in Hz (the paper
	// cites 0.17-0.62 Hz).
	BreathBandLow, BreathBandHigh float64
	// HeartBandLow/High bound the heart search band in Hz (0.625-2.5 Hz,
	// the β3+β4 band at 20 Hz).
	HeartBandLow, HeartBandHigh float64

	// MusicDecimate further decimates the calibrated data before
	// root-MUSIC so breathing frequencies spread around the unit circle.
	MusicDecimate int
	// MusicWindow is the temporal correlation window M.
	MusicWindow int

	// Parallelism bounds the worker goroutines used to fan the
	// per-subcarrier stages (phase extraction, smoothing, downsampling)
	// across cores. 0 selects GOMAXPROCS; 1 forces the serial path. The
	// output is byte-identical for every value: workers only ever write
	// their own subcarrier's slot.
	Parallelism int

	// Estimator selects the breathing backend behind the estimation stage
	// ("peaks", "root-music", "esprit", "amplitude" or any registered
	// backend). Empty keeps the historical person-count dispatch: peaks
	// for one person, root-MUSIC for more.
	Estimator string
	// HeartEstimator selects the heart backend; empty selects "fft".
	HeartEstimator string

	// Observer, when non-nil, receives live OnStageStart/OnStageEnd
	// callbacks with per-stage durations and data shapes from every
	// pipeline run. It must be safe for concurrent use if the processor
	// is shared.
	Observer StageObserver
	// Sink, when non-nil, receives one StrideRecord per pipeline run —
	// every stage's stats with its evidence, the result, and on a Monitor
	// the stride's Health and HealthDelta (the explain recorder is one).
	// Nil (the default) computes no evidence and builds no record.
	Sink StrideSink
}

// DefaultConfig returns the paper's operating point for a 400 Hz capture.
func DefaultConfig() Config {
	return Config{
		AntennaA:             0,
		AntennaB:             1,
		TrendWindow:          2000,
		SmoothWindow:         50,
		HampelThreshold:      0.01,
		TrendStride:          10,
		DownsampleFactor:     20,
		EnvWindow:            400,
		EnvMinV:              0.25,
		EnvMaxV:              6,
		MinStationaryWindows: 5,
		TopK:                 3,
		WaveletOrder:         4,
		WaveletLevel:         4,
		WaveletMode:          wavelet.ModeSymmetric,
		PeakWindow:           51,
		PeakMinDistance:      35,
		BreathBandLow:        0.17,
		BreathBandHigh:       0.62,
		HeartBandLow:         0.625,
		HeartBandHigh:        2.5,
		MusicDecimate:        10,
		MusicWindow:          32,
	}
}

// ConfigForRate adapts the paper's 400 Hz defaults to another capture rate,
// scaling the raw-rate windows and the downsample factor so the estimation
// rate stays 20 Hz where possible (Fig. 13's sampling-rate sweep).
func ConfigForRate(sampleRate float64) Config {
	return DefaultConfig().ForRate(sampleRate)
}

// ForRate returns c with its four rate-scaled fields — TrendWindow,
// SmoothWindow, EnvWindow and DownsampleFactor — re-derived from the
// paper's 400 Hz values for sampleRate; every other field, the observer,
// sink and estimator choices included, is kept. A non-positive rate
// returns c unchanged.
func (c Config) ForRate(sampleRate float64) Config {
	if sampleRate <= 0 {
		return c
	}
	scale := sampleRate / 400.0
	c.TrendWindow = maxInt(11, int(2000*scale))
	c.SmoothWindow = maxInt(3, int(50*scale))
	c.EnvWindow = maxInt(10, int(400*scale))
	c.DownsampleFactor = maxInt(1, int(sampleRate/20.0))
	return c
}

// Validate checks internal consistency.
func (c *Config) Validate() error {
	switch {
	case c.AntennaA == c.AntennaB:
		return fmt.Errorf("core: antennas must differ")
	case c.TrendWindow < 3 || c.SmoothWindow < 1:
		return fmt.Errorf("core: Hampel windows too small (%d, %d)", c.TrendWindow, c.SmoothWindow)
	case c.HampelThreshold < 0:
		return fmt.Errorf("core: negative Hampel threshold")
	case c.TrendStride < 1:
		return fmt.Errorf("core: trend stride %d < 1", c.TrendStride)
	case c.MinStationaryWindows < 1:
		return fmt.Errorf("core: min stationary windows %d < 1", c.MinStationaryWindows)
	case c.DownsampleFactor < 1:
		return fmt.Errorf("core: downsample factor %d < 1", c.DownsampleFactor)
	case c.EnvWindow < 2:
		return fmt.Errorf("core: environment window %d < 2", c.EnvWindow)
	case c.EnvMinV < 0 || c.EnvMaxV <= c.EnvMinV:
		return fmt.Errorf("core: bad environment thresholds [%v, %v]", c.EnvMinV, c.EnvMaxV)
	case c.TopK < 1:
		return fmt.Errorf("core: TopK %d < 1", c.TopK)
	case c.WaveletOrder < 1 || c.WaveletLevel < 1:
		return fmt.Errorf("core: bad wavelet order/level (%d, %d)", c.WaveletOrder, c.WaveletLevel)
	case c.PeakWindow < 3:
		return fmt.Errorf("core: peak window %d < 3", c.PeakWindow)
	case c.BreathBandLow <= 0 || c.BreathBandHigh <= c.BreathBandLow:
		return fmt.Errorf("core: bad breathing band [%v, %v]", c.BreathBandLow, c.BreathBandHigh)
	case c.HeartBandLow <= 0 || c.HeartBandHigh <= c.HeartBandLow:
		return fmt.Errorf("core: bad heart band [%v, %v]", c.HeartBandLow, c.HeartBandHigh)
	case c.MusicDecimate < 1 || c.MusicWindow < 4:
		return fmt.Errorf("core: bad MUSIC parameters (%d, %d)", c.MusicDecimate, c.MusicWindow)
	case c.Parallelism < 0:
		return fmt.Errorf("core: negative parallelism %d", c.Parallelism)
	}
	if c.Estimator != "" {
		if _, err := LookupBreathingEstimator(c.Estimator); err != nil {
			return err
		}
	}
	if c.HeartEstimator != "" {
		if _, err := LookupHeartEstimator(c.HeartEstimator); err != nil {
			return err
		}
	}
	return nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
