package core

import "fmt"

// The paper's fixed operating point (Wang, Yang, Mao, ICDCS 2017). These
// are constants, not Config fields: the paper never varies them, and
// neither does any caller of the pipeline. The fractional ones are typed
// float64 so that a product such as HeartBandLow*0.92 rounds like float64
// arithmetic at run time rather than folding at arbitrary precision.
const (
	// AntennaA and AntennaB are the receive antennas whose CSI phase
	// difference the pipeline uses (paper: data extraction, eq. (6)).
	AntennaA, AntennaB = 0, 1
	// hampelThreshold is the Hampel nsigma threshold of both calibration
	// filters; at 0.01 they act as running medians (paper: data
	// calibration).
	hampelThreshold float64 = 0.01
	// trendStride evaluates the 2000-sample trend median every trendStride
	// samples with linear interpolation in between — a speedup that loses
	// nothing because the trend is slow by construction.
	trendStride = 10
	// EnvMinV and EnvMaxV bound the stationary band of the environment
	// statistic V of eq. (8): V below EnvMinV means no person, above
	// EnvMaxV large motion (paper: environment detection).
	EnvMinV, EnvMaxV float64 = 0.25, 6
	// minStationaryWindows is the number of consecutive stationary
	// environment windows required before estimation is attempted.
	minStationaryWindows = 5
	// TopK is the number of max-MAD subcarriers considered in selection;
	// the pipeline picks the median of the top three (paper: subcarrier
	// selection).
	TopK = 3
	// waveletOrder and waveletLevel are the Daubechies order (db4) and the
	// decomposition depth L = 4 of the discrete wavelet transform, whose
	// boundary extension is symmetric.
	waveletOrder, waveletLevel = 4, 4
	// peakWindow is the sliding window (20 Hz samples) of breathing peak
	// detection, sized by the longest human breathing period (paper:
	// breathing rate estimation); peaks closer than peakMinDistance
	// samples, slightly under the shortest plausible breathing period,
	// are suppressed.
	peakWindow, peakMinDistance = 51, 35
	// BreathBandLow and BreathBandHigh bound the breathing search band in
	// Hz (0.17-0.62 Hz, as the paper cites).
	BreathBandLow, BreathBandHigh float64 = 0.17, 0.62
	// HeartBandLow and HeartBandHigh bound the heart search band in Hz:
	// 0.625-2.5 Hz, the β3+β4 DWT band at 20 Hz.
	HeartBandLow, HeartBandHigh float64 = 0.625, 2.5
	// musicDecimate further decimates the calibrated data before
	// root-MUSIC so breathing frequencies spread around the unit circle;
	// musicWindow is the temporal correlation window M of eq. (11)
	// (paper: multi-person breathing estimation).
	musicDecimate, musicWindow = 10, 32
)

// Config holds the settable parameters of the PhaseBeat pipeline: the four
// rate-scaled windows, the parallelism, the breathing backend and the
// observability hooks. The paper's fixed
// parameters are the constants above. The zero value is not usable; start
// from DefaultConfig and override with the With* options.
type Config struct {
	// TrendWindow is the large Hampel window (samples at the raw rate)
	// used to estimate and remove the DC trend. The paper uses 2000.
	TrendWindow int
	// SmoothWindow is the small Hampel window used to suppress
	// high-frequency outliers. The paper uses 50.
	SmoothWindow int
	// DownsampleFactor reduces the raw rate for estimation; the paper
	// downsamples 400 Hz → 20 Hz with factor 20.
	DownsampleFactor int

	// EnvWindow is the sliding-window length (raw-rate samples) for the
	// environment-detection statistic V of eq. (8).
	EnvWindow int

	// Parallelism bounds the worker goroutines used to fan the
	// per-subcarrier stages (unwrap and smoothing, downsampling) across
	// cores. 0 selects GOMAXPROCS; 1 forces the serial path. Extraction is
	// not fanned out: it is one packet-major pass that reads each packet
	// once. The output is byte-identical for every value: workers only
	// ever write their own subcarrier's slot.
	Parallelism int

	// Estimator selects the breathing backend behind the estimation stage
	// ("peaks", "root-music" or "esprit"). Empty selects the paper's
	// person-count dispatch: peaks for one person, root-MUSIC for more.
	Estimator string

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
		TrendWindow:      2000,
		SmoothWindow:     50,
		DownsampleFactor: 20,
		EnvWindow:        400,
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
	case c.TrendWindow < 3 || c.SmoothWindow < 1:
		return fmt.Errorf("core: Hampel windows too small (%d, %d)", c.TrendWindow, c.SmoothWindow)
	case c.DownsampleFactor < 1:
		return fmt.Errorf("core: downsample factor %d < 1", c.DownsampleFactor)
	case c.EnvWindow < 2:
		return fmt.Errorf("core: environment window %d < 2", c.EnvWindow)
	case c.Parallelism < 0:
		return fmt.Errorf("core: negative parallelism %d", c.Parallelism)
	}
	if c.Estimator != "" {
		if _, err := LookupBreathingEstimator(c.Estimator); err != nil {
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
