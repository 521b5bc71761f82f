package music

import (
	"fmt"
	"math"
	"math/cmplx"
	"sort"

	"phasebeat/internal/linalg"
)

// RootMUSIC estimates the frequencies (Hz) of nSignals real sinusoids from
// an M×M temporal correlation matrix of data sampled at fs.
//
// Each real sinusoid contributes a conjugate pair of complex exponentials,
// so the signal subspace has dimension 2·nSignals; the noise-subspace
// polynomial D(z) = Σ_v |V(z)|² (summed over noise eigenvectors v) has its
// 2(M-1) roots in conjugate-reciprocal quadruples, and the 2·nSignals roots
// inside-and-closest-to the unit circle give the frequencies via
// f = |arg z|·fs/(2π).
//
// The returned slice holds nSignals positive frequencies in ascending
// order.
func RootMUSIC(r *linalg.Matrix, nSignals int, fs float64) ([]float64, error) {
	m := r.Rows()
	if r.Cols() != m {
		return nil, fmt.Errorf("music: correlation matrix must be square, got %dx%d", m, r.Cols())
	}
	nExp := 2 * nSignals
	if nSignals < 1 {
		return nil, fmt.Errorf("music: nSignals must be >= 1, got %d", nSignals)
	}
	if nExp >= m {
		return nil, fmt.Errorf("music: window %d too small for %d signals (need > %d)", m, nSignals, nExp)
	}
	if fs <= 0 {
		return nil, fmt.Errorf("music: sample rate must be positive, got %v", fs)
	}

	eig, err := linalg.EigSym(r)
	if err != nil {
		return nil, fmt.Errorf("music: eigendecomposition: %w", err)
	}

	// Noise-polynomial coefficients: c[k+M-1] = Σ_v Σ_i v[i]·v[i+k],
	// k = -(M-1) … M-1 (autocorrelation of each noise eigenvector),
	// read straight out of the eigenvector matrix so no per-vector
	// column copies are allocated.
	coeffs := make([]float64, 2*m-1)
	vec := eig.Vectors
	for vi := nExp; vi < m; vi++ {
		for k := 0; k < m; k++ {
			var acc float64
			for i := 0; i+k < m; i++ {
				acc += vec.At(i, vi) * vec.At(i+k, vi)
			}
			coeffs[m-1+k] += acc
			if k > 0 {
				coeffs[m-1-k] += acc
			}
		}
	}

	roots, err := linalg.NewPolyReal(coeffs).Roots()
	if err != nil {
		return nil, fmt.Errorf("music: noise polynomial roots: %w", err)
	}
	selected, err := selectInsideRoots(roots, nExp)
	if err != nil {
		return nil, err
	}
	// Conjugate pairs collapse to the same |f|, leaving nSignals values
	// after clustering.
	return freqsFromRoots(selected, nSignals, fs), nil
}

// selectInsideRoots keeps the roots strictly inside the unit circle (one
// of each reciprocal pair) and returns the nExp closest to the circle.
func selectInsideRoots(roots []complex128, nExp int) ([]complex128, error) {
	inside := make([]complex128, 0, len(roots))
	for _, z := range roots {
		if cmplx.Abs(z) < 1 {
			inside = append(inside, z)
		}
	}
	if len(inside) < nExp {
		return nil, fmt.Errorf("music: only %d roots inside unit circle, need %d", len(inside), nExp)
	}
	sort.Slice(inside, func(i, j int) bool {
		return 1-cmplx.Abs(inside[i]) < 1-cmplx.Abs(inside[j])
	})
	return inside[:nExp], nil
}

// freqsFromRoots converts selected unit-circle-adjacent roots (or rotation
// eigenvalues) to nSignals positive frequencies in ascending order:
// conjugate pairs collapse to the same |f| and are merged by clustering.
func freqsFromRoots(selected []complex128, nSignals int, fs float64) []float64 {
	freqs := make([]float64, 0, len(selected))
	for _, z := range selected {
		freqs = append(freqs, math.Abs(cmplx.Phase(z))*fs/(2*math.Pi))
	}
	sort.Float64s(freqs)
	out := clusterFrequencies(freqs, nSignals, fs)
	sort.Float64s(out)
	return out
}

// clusterFrequencies merges the 2·nSignals magnitudes (conjugate pairs)
// into nSignals representative frequencies by pairing nearest neighbors.
func clusterFrequencies(sorted []float64, nSignals int, fs float64) []float64 {
	out := make([]float64, 0, nSignals)
	i := 0
	for i < len(sorted) && len(out) < nSignals {
		if i+1 < len(sorted) && sorted[i+1]-sorted[i] < 0.02*fs {
			out = append(out, (sorted[i]+sorted[i+1])/2)
			i += 2
		} else {
			out = append(out, sorted[i])
			i++
		}
	}
	// If pairing produced too few values, pad with the remaining entries.
	for i < len(sorted) && len(out) < nSignals {
		out = append(out, sorted[i])
		i++
	}
	return out
}

// EstimateFrequencies is the high-level helper PhaseBeat's multi-person
// path calls: build the correlation matrix from the calibrated subcarrier
// series with window m, then run root-MUSIC.
func EstimateFrequencies(series [][]float64, nSignals int, fs float64, m int) ([]float64, error) {
	r, err := CorrelationMatrix(series, m)
	if err != nil {
		return nil, err
	}
	return RootMUSIC(r, nSignals, fs)
}
