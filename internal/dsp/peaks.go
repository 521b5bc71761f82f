package dsp

import "fmt"

// Peak describes one detected local maximum.
type Peak struct {
	// Index is the sample index of the peak.
	Index int
	// Value is the sample value at the peak.
	Value float64
}

// FindPeaks locates true peaks of x with PhaseBeat's sliding-window rule: a
// sample is a peak if it is the maximum of the full window of length
// `window` centered on it (PhaseBeat uses window = 51 samples, sized to the
// maximum human breathing period). minDistance additionally suppresses
// peaks closer than that many samples to a stronger accepted peak; pass 0
// to disable.
func FindPeaks(x []float64, window, minDistance int) ([]Peak, error) {
	if window <= 0 {
		return nil, fmt.Errorf("dsp: peak window must be positive, got %d", window)
	}
	n := len(x)
	if n == 0 {
		return nil, nil
	}
	half := window / 2
	var candidates []Peak
	for i := 1; i < n-1; i++ {
		if !(x[i] > x[i-1] && x[i] >= x[i+1]) {
			continue
		}
		lo := i - half
		if lo < 0 {
			lo = 0
		}
		hi := i + half
		if hi >= n {
			hi = n - 1
		}
		isMax := true
		for k := lo; k <= hi; k++ {
			if x[k] > x[i] {
				isMax = false
				break
			}
		}
		if isMax {
			candidates = append(candidates, Peak{Index: i, Value: x[i]})
		}
	}
	if minDistance <= 0 || len(candidates) < 2 {
		return candidates, nil
	}
	return enforceMinDistance(candidates, minDistance), nil
}

// enforceMinDistance greedily keeps the strongest peaks, dropping any
// candidate within minDistance of an already accepted one, and returns the
// survivors in index order.
func enforceMinDistance(candidates []Peak, minDistance int) []Peak {
	// Order candidate indices by descending value.
	order := make([]int, len(candidates))
	for i := range order {
		order[i] = i
	}
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && candidates[order[j]].Value > candidates[order[j-1]].Value; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	accepted := make([]bool, len(candidates))
	for _, idx := range order {
		ok := true
		for j, acc := range accepted {
			if !acc {
				continue
			}
			d := candidates[idx].Index - candidates[j].Index
			if d < 0 {
				d = -d
			}
			if d < minDistance {
				ok = false
				break
			}
		}
		accepted[idx] = ok
	}
	out := make([]Peak, 0, len(candidates))
	for i, p := range candidates {
		if accepted[i] {
			out = append(out, p)
		}
	}
	return out
}

// MedianPeakInterval returns the median spacing between consecutive peaks —
// robust to a spurious extra peak near either edge, which would bias the
// span-based mean. ok is false with fewer than two peaks.
func MedianPeakInterval(peaks []Peak) (interval float64, ok bool) {
	if len(peaks) < 2 {
		return 0, false
	}
	gaps := make([]float64, len(peaks)-1)
	for i := 1; i < len(peaks); i++ {
		gaps[i-1] = float64(peaks[i].Index - peaks[i-1].Index)
	}
	return Median(gaps), true
}

// RateFromPeaks converts peak spacing into a rate in events-per-minute for
// a signal sampled at fs Hz (PhaseBeat's 60/P breathing-rate estimate).
// The period is the mean of the peak-to-peak intervals after discarding
// intervals more than 30% away from the median: the trim rejects spurious
// edge peaks and missed-peak double gaps, while the mean (unlike a plain
// median) stays unbiased when waveform distortion makes successive
// intervals alternate around the true period. ok is false with fewer than
// two peaks.
func RateFromPeaks(peaks []Peak, fs float64) (bpm float64, ok bool) {
	med, ok := MedianPeakInterval(peaks)
	if !ok || med == 0 {
		return 0, false
	}
	var sum float64
	var n int
	for i := 1; i < len(peaks); i++ {
		gap := float64(peaks[i].Index - peaks[i-1].Index)
		if gap < 0.7*med || gap > 1.3*med {
			continue
		}
		sum += gap
		n++
	}
	if n == 0 || sum == 0 {
		return 0, false
	}
	period := sum / float64(n) / fs // seconds per cycle
	return 60 / period, true
}
