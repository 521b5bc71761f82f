package core

import (
	"fmt"

	"phasebeat/internal/arena"
	"phasebeat/internal/dsp"
)

// smoothScratch holds the reusable intermediates of a ranged smoothing
// evaluation so the monitor's steady-state loop allocates nothing here.
type smoothScratch struct {
	trend, detr []float64
}

// smoothRangeInto applies the paper's two Hampel passes to one series at
// the raw rate — subtract the large-window trend (DC removal), then
// suppress high-frequency outliers with the small window — and writes
// samples [lo, hi) into dst (grown as needed) with caller-owned scratch,
// without evaluating the rest of the series. The values are identical to
// the full range's: both Hampel passes are centered sliding windows, so
// sample i depends only on series[i-m, i+m] with m = TrendWindow/2 +
// SmoothWindow/2, and the strided trend's anchor grid is derived from
// len(series), not from the requested range.
func smoothRangeInto(dst, series []float64, cfg *Config, lo, hi int, sc *smoothScratch) ([]float64, error) {
	n := len(series)
	if lo < 0 || hi > n || lo > hi {
		return nil, fmt.Errorf("core: smooth range [%d, %d) outside [0, %d)", lo, hi, n)
	}
	// The small Hampel pass reads detrended samples up to SmoothWindow/2
	// outside the requested range; detrend exactly that margin.
	sh := cfg.SmoothWindow / 2
	dlo := lo - sh
	if dlo < 0 {
		dlo = 0
	}
	dhi := hi + sh
	if dhi > n {
		dhi = n
	}
	trend, err := dsp.RunningMedianStridedRange(sc.trend, series, cfg.TrendWindow, trendStride, dlo, dhi)
	if err != nil {
		return nil, fmt.Errorf("core: detrend: %w", err)
	}
	sc.trend = trend
	if cap(sc.detr) < dhi-dlo {
		sc.detr = make([]float64, dhi-dlo)
	}
	detr := sc.detr[:dhi-dlo]
	for j := dlo; j < dhi; j++ {
		detr[j-dlo] = series[j] - trend[j-dlo]
	}
	out, err := dsp.HampelRange(dst, detr, dlo, n, cfg.SmoothWindow, hampelThreshold, lo, hi)
	if err != nil {
		return nil, fmt.Errorf("core: smooth: %w", err)
	}
	return out, nil
}

// uniformCols returns the shared row length of a rectangular matrix.
// Ragged rows are an error: the pipeline always produces rectangular data,
// so they can reach only the exported entry points.
func uniformCols(series [][]float64) (int, error) {
	if len(series) == 0 {
		return 0, nil
	}
	cols := len(series[0])
	for i, row := range series {
		if len(row) != cols {
			return 0, fmt.Errorf("core: ragged matrix: row %d has %d columns, row 0 has %d", i, len(row), cols)
		}
	}
	return cols, nil
}

// SmoothAll applies smoothRangeInto over the full range to every
// subcarrier series of a rectangular matrix, fanning the independent
// subcarriers across cfg.Parallelism workers. Each worker reuses one scratch
// across its contiguous row range, writing each row straight into one
// slab. The pipeline smooths inside its stride engine; this is the
// standalone form, for analyses and as the engine's reference.
func SmoothAll(phaseDiff [][]float64, cfg *Config) ([][]float64, error) {
	cols, err := uniformCols(phaseDiff)
	if err != nil {
		return nil, err
	}
	m := arena.NewMatrix(nil, len(phaseDiff), cols)
	err = parallelChunks(len(phaseDiff), cfg.Parallelism, func(lo, hi int) error {
		var sc smoothScratch
		for i := lo; i < hi; i++ {
			if _, err := smoothRangeInto(m.Row(i)[:0], phaseDiff[i], cfg, 0, cols, &sc); err != nil {
				return fmt.Errorf("subcarrier %d: %w", i, err)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return m.Rows(), nil
}

// Downsample reduces every smoothed series by the configured factor
// (400 Hz → 20 Hz in the paper), returning the calibrated matrix the rest
// of the pipeline consumes: one flat subcarrier-major slab (the matrix's
// ownership transfers to the caller, so it is deliberately not
// arena-pooled).
func Downsample(smoothed [][]float64, cfg *Config) ([][]float64, error) {
	cols, err := uniformCols(smoothed)
	if err != nil {
		return nil, err
	}
	outCols := 0
	if cfg.DownsampleFactor > 0 {
		outCols = (cols + cfg.DownsampleFactor - 1) / cfg.DownsampleFactor
	}
	// A non-positive factor leaves outCols zero; DownsampleInto reports it
	// with its per-subcarrier attribution.
	m := arena.NewMatrix(nil, len(smoothed), outCols)
	err = parallelChunks(len(smoothed), cfg.Parallelism, func(lo, hi int) error {
		for i := lo; i < hi; i++ {
			if _, err := dsp.DownsampleInto(m.Row(i)[:0], smoothed[i], cfg.DownsampleFactor); err != nil {
				return fmt.Errorf("subcarrier %d: %w", i, err)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return m.Rows(), nil
}

// Calibrate is the full data-calibration stage: SmoothAll then Downsample.
func Calibrate(phaseDiff [][]float64, cfg *Config) ([][]float64, error) {
	smoothed, err := SmoothAll(phaseDiff, cfg)
	if err != nil {
		return nil, err
	}
	return Downsample(smoothed, cfg)
}
