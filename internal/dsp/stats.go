package dsp

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of x, or 0 for an empty slice.
func Mean(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	var s float64
	for _, v := range x {
		s += v
	}
	return s / float64(len(x))
}

// Variance returns the population variance of x, or 0 when len(x) < 2.
func Variance(x []float64) float64 {
	if len(x) < 2 {
		return 0
	}
	m := Mean(x)
	var s float64
	for _, v := range x {
		d := v - m
		s += d * d
	}
	return s / float64(len(x))
}

// StdDev returns the population standard deviation of x.
func StdDev(x []float64) float64 { return math.Sqrt(Variance(x)) }

// Median returns the median of x, or 0 for an empty slice. x is not
// modified.
func Median(x []float64) float64 {
	n := len(x)
	if n == 0 {
		return 0
	}
	tmp := make([]float64, n)
	copy(tmp, x)
	sort.Float64s(tmp)
	if n%2 == 1 {
		return tmp[n/2]
	}
	return (tmp[n/2-1] + tmp[n/2]) / 2
}

// MeanAbsDev returns the mean absolute deviation around the mean — the
// subcarrier sensitivity metric of PhaseBeat's eq. (8) and Fig. 7.
func MeanAbsDev(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	m := Mean(x)
	var s float64
	for _, v := range x {
		s += math.Abs(v - m)
	}
	return s / float64(len(x))
}

// Percentile returns the p-th percentile (0 <= p <= 100) of x using linear
// interpolation between order statistics. x is not modified.
func Percentile(x []float64, p float64) float64 {
	n := len(x)
	if n == 0 {
		return 0
	}
	tmp := make([]float64, n)
	copy(tmp, x)
	sort.Float64s(tmp)
	if p <= 0 {
		return tmp[0]
	}
	if p >= 100 {
		return tmp[n-1]
	}
	pos := p / 100 * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return tmp[lo]
	}
	frac := pos - float64(lo)
	return tmp[lo]*(1-frac) + tmp[hi]*frac
}

// MinMax returns the minimum and maximum of x. It returns (0, 0) for an
// empty slice.
func MinMax(x []float64) (minVal, maxVal float64) {
	if len(x) == 0 {
		return 0, 0
	}
	minVal, maxVal = x[0], x[0]
	for _, v := range x[1:] {
		if v < minVal {
			minVal = v
		}
		if v > maxVal {
			maxVal = v
		}
	}
	return minVal, maxVal
}

// Autocorrelation returns the biased sample autocorrelation of x for lags
// 0..maxLag, normalized so lag 0 equals 1 (unless x has zero variance, in
// which case all entries are 0).
func Autocorrelation(x []float64, maxLag int) []float64 {
	n := len(x)
	if maxLag >= n {
		maxLag = n - 1
	}
	if maxLag < 0 {
		return nil
	}
	m := Mean(x)
	out := make([]float64, maxLag+1)
	var denom float64
	for _, v := range x {
		d := v - m
		denom += d * d
	}
	if denom == 0 {
		return out
	}
	for lag := 0; lag <= maxLag; lag++ {
		var s float64
		for i := 0; i+lag < n; i++ {
			s += (x[i] - m) * (x[i+lag] - m)
		}
		out[lag] = s / denom
	}
	return out
}

// RMS returns the root-mean-square of x.
func RMS(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	var s float64
	for _, v := range x {
		s += v * v
	}
	return math.Sqrt(s / float64(len(x)))
}
