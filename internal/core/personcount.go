package core

import (
	"fmt"

	"phasebeat/internal/linalg"
	"phasebeat/internal/music"
)

// EstimatePersonCount guesses how many breathing persons are present from
// the eigenvalue profile of the breathing-band correlation matrix, using
// the MDL criterion. The paper assumes the person count is known; this is
// the natural extension for deployments where it is not. maxPersons bounds
// the answer (physically, how many people could fit in range).
func EstimatePersonCount(calibrated [][]float64, fs float64, maxPersons int) (int, error) {
	if maxPersons < 1 {
		return 0, fmt.Errorf("core: maxPersons %d < 1", maxPersons)
	}
	series, musicFs, err := prepareMusicSeries(calibrated, fs)
	if err != nil {
		return 0, err
	}
	r, err := music.CorrelationMatrix(series, musicWindow)
	if err != nil {
		return 0, err
	}
	eig, err := linalg.EigSym(r)
	if err != nil {
		return 0, fmt.Errorf("core: eigendecomposition: %w", err)
	}
	// The bandpassed residual noise is colored, which defeats flat-noise
	// criteria like MDL; the signal/noise split instead shows up as a
	// large multiplicative gap in the eigenvalue profile (each breathing
	// sinusoid contributes a conjugate pair of dominant eigenvalues).
	order := largestEigenGap(eig.Values, 2*maxPersons)
	persons := (order + 1) / 2
	if persons < 1 {
		persons = 1
	}
	if persons > maxPersons {
		persons = maxPersons
	}
	if persons == 1 {
		return 1, nil
	}
	// A deep breather's second harmonic forms its own eigenvalue pair and
	// would be counted as an extra person; estimate the frequencies at the
	// candidate order and drop harmonically-related lines.
	freqs, err := music.RootMUSIC(r, persons, musicFs)
	if err != nil {
		return persons, nil // keep the gap estimate when rooting fails
	}
	return countNonHarmonic(freqs), nil
}

// countNonHarmonic counts frequencies that are not near-integer multiples
// (2× or 3×, within 6%) of a lower estimated frequency.
func countNonHarmonic(sorted []float64) int {
	count := 0
	for i, f := range sorted {
		harmonic := false
		for j := 0; j < i; j++ {
			base := sorted[j]
			if base <= 0 {
				continue
			}
			for k := 2.0; k <= 3; k++ {
				if f > 0 && absf(f-k*base)/(k*base) < 0.06 {
					harmonic = true
				}
			}
		}
		if !harmonic {
			count++
		}
	}
	if count < 1 {
		count = 1
	}
	return count
}

func absf(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// largestEigenGap returns the index k (1-based count of signal
// eigenvalues) before the largest ratio gap λ_k/λ_{k+1}, searching
// k = 1..maxOrder. It returns 0 when no gap exceeds the noise-flatness
// floor.
func largestEigenGap(values []float64, maxOrder int) int {
	if maxOrder > len(values)-1 {
		maxOrder = len(values) - 1
	}
	const minRatio = 3.0
	best, bestRatio := 0, minRatio
	for k := 1; k <= maxOrder; k++ {
		lo := values[k]
		if lo < 1e-15 {
			lo = 1e-15
		}
		if ratio := values[k-1] / lo; ratio > bestRatio {
			best, bestRatio = k, ratio
		}
	}
	return best
}
