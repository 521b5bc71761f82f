package dsp

import "math"

// CircularStats summarizes a set of angles (radians) on the unit circle.
type CircularStats struct {
	// Mean is the circular mean direction in (-π, π].
	Mean float64
	// R is the mean resultant length in [0, 1]; 1 means all angles
	// coincide, 0 means they are uniformly spread.
	R float64
	// Variance is the circular variance 1-R.
	Variance float64
	// StdDev is the circular standard deviation sqrt(-2 ln R).
	StdDev float64
}

// Circular computes circular statistics of the given angles in radians.
// These quantify Fig. 1 of the paper: raw single-antenna CSI phase is
// nearly uniform on the circle (R ≈ 0) while the phase difference between
// antennas concentrates into a narrow sector (R ≈ 1). The sine and cosine
// sums are exact (ExactSum), so the result does not depend on the order of
// the angles.
func Circular(angles []float64) CircularStats {
	if len(angles) == 0 {
		return CircularStats{Variance: 1, StdDev: math.Inf(1)}
	}
	var accSin, accCos ExactSum
	for _, a := range angles {
		sin, cos := math.Sincos(a)
		accSin.Add(sin)
		accCos.Add(cos)
	}
	sumSin, sumCos := accSin.Float64(), accCos.Float64()
	n := float64(len(angles))
	r := math.Hypot(sumSin, sumCos) / n
	stats := CircularStats{
		Mean:     math.Atan2(sumSin, sumCos),
		R:        r,
		Variance: 1 - r,
	}
	if r > 0 {
		stats.StdDev = math.Sqrt(-2 * math.Log(r))
	} else {
		stats.StdDev = math.Inf(1)
	}
	return stats
}

// SectorWidth returns the width (radians) of the smallest arc containing
// fraction `coverage` (e.g. 0.95) of the angles. It is used to report the
// "concentrated into a sector between 190° and 210°" observation of Fig. 1.
func SectorWidth(angles []float64, coverage float64) float64 {
	n := len(angles)
	if n == 0 {
		return 0
	}
	if coverage >= 1 {
		coverage = 1
	}
	keep := int(math.Ceil(coverage * float64(n)))
	if keep < 1 {
		keep = 1
	}
	// Sort angles, then scan windows of `keep` consecutive points around
	// the circle and take the smallest span.
	sorted := make([]float64, n)
	for i, a := range angles {
		sorted[i] = WrapPhase(a)
	}
	insertionSort(sorted)
	best := 2 * math.Pi
	for i := 0; i < n; i++ {
		j := i + keep - 1
		var span float64
		if j < n {
			span = sorted[j] - sorted[i]
		} else {
			span = (sorted[j-n] + 2*math.Pi) - sorted[i]
		}
		if span < best {
			best = span
		}
	}
	return best
}

func insertionSort(x []float64) {
	for i := 1; i < len(x); i++ {
		for j := i; j > 0 && x[j] < x[j-1]; j-- {
			x[j], x[j-1] = x[j-1], x[j]
		}
	}
}
