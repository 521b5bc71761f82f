package dsp

// RemoveMean returns x with its mean subtracted.
func RemoveMean(x []float64) []float64 {
	m := Mean(x)
	out := make([]float64, len(x))
	for i, v := range x {
		out[i] = v - m
	}
	return out
}

// DetrendLinear removes the least-squares straight-line fit from x.
func DetrendLinear(x []float64) []float64 {
	n := len(x)
	out := make([]float64, n)
	if n == 0 {
		return out
	}
	if n == 1 {
		return out // single sample detrends to zero
	}
	// Fit x[i] ≈ a + b·i.
	var sumI, sumI2, sumX, sumIX float64
	for i, v := range x {
		fi := float64(i)
		sumI += fi
		sumI2 += fi * fi
		sumX += v
		sumIX += fi * v
	}
	fn := float64(n)
	denom := fn*sumI2 - sumI*sumI
	var a, b float64
	if denom != 0 {
		b = (fn*sumIX - sumI*sumX) / denom
		a = (sumX - b*sumI) / fn
	} else {
		a = sumX / fn
	}
	for i, v := range x {
		out[i] = v - (a + b*float64(i))
	}
	return out
}

// DetrendHampelStrided removes the slow trend estimated by a large
// sliding-window median (PhaseBeat's DC-removal step; window is the full
// Hampel window length). The trend is evaluated only every stride samples
// and linearly interpolated in between — a large speedup that is
// essentially lossless because the trend is by construction slow compared
// to any plausible stride; stride 1 is the exact running median.
func DetrendHampelStrided(x []float64, window, stride int) ([]float64, error) {
	trend, err := RunningMedianStrided(x, window, stride)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(x))
	for i, v := range x {
		out[i] = v - trend[i]
	}
	return out, nil
}
