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
