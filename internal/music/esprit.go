package music

import (
	"fmt"

	"phasebeat/internal/linalg"
)

// ESPRIT estimates the frequencies (Hz) of nSignals real sinusoids from an
// M×M temporal correlation matrix sampled at fs, using least-squares
// ESPRIT: the rotational invariance between the first and last M−1 rows of
// the signal subspace gives a small matrix whose eigenvalues are e^{±jω}.
// It is an alternative to RootMUSIC with no spectral search and no
// high-degree polynomial rooting.
func ESPRIT(r *linalg.Matrix, nSignals int, fs float64) ([]float64, error) {
	m := r.Rows()
	nExp := 2 * nSignals
	if r.Cols() != m {
		return nil, fmt.Errorf("music: correlation matrix must be square, got %dx%d", m, r.Cols())
	}
	if nSignals < 1 {
		return nil, fmt.Errorf("music: nSignals must be >= 1, got %d", nSignals)
	}
	if nExp >= m {
		return nil, fmt.Errorf("music: window %d too small for %d signals", m, nSignals)
	}
	if fs <= 0 {
		return nil, fmt.Errorf("music: sample rate must be positive, got %v", fs)
	}
	eig, err := linalg.EigSym(r)
	if err != nil {
		return nil, fmt.Errorf("music: eigendecomposition: %w", err)
	}
	// Signal subspace: the top-nExp eigenvectors (EigSym sorts
	// descending), consumed through the shared shift-invariance core.
	return espritFromBasis(eig.Vectors, nExp, nSignals, fs)
}

// espritFromBasis solves the shift-invariance least squares for the first
// nExp columns of basis and converts the rotation eigenvalues to
// frequencies.
func espritFromBasis(basis *linalg.Matrix, nExp, nSignals int, fs float64) ([]float64, error) {
	m := basis.Rows()
	s1 := linalg.NewMatrix(m-1, nExp)
	s2 := linalg.NewMatrix(m-1, nExp)
	for c := 0; c < nExp; c++ {
		for rr := 0; rr < m-1; rr++ {
			s1.Set(rr, c, basis.At(rr, c))
			s2.Set(rr, c, basis.At(rr+1, c))
		}
	}

	// Least squares: Φ = (S1ᵀS1)⁻¹ S1ᵀ S2.
	s1t := s1.Transpose()
	gram, err := s1t.Mul(s1)
	if err != nil {
		return nil, err
	}
	rhs, err := s1t.Mul(s2)
	if err != nil {
		return nil, err
	}
	phi, err := linalg.Solve(gram, rhs)
	if err != nil {
		return nil, fmt.Errorf("music: ESPRIT least squares: %w", err)
	}

	vals, err := linalg.Eigenvalues(phi)
	if err != nil {
		return nil, fmt.Errorf("music: rotation eigenvalues: %w", err)
	}
	return freqsFromRoots(vals, nSignals, fs), nil
}

// EstimateFrequenciesESPRIT mirrors EstimateFrequencies with the ESPRIT
// backend: build the temporal correlation matrix from the calibrated
// subcarrier series with window m, then run least-squares ESPRIT.
func EstimateFrequenciesESPRIT(series [][]float64, nSignals int, fs float64, m int) ([]float64, error) {
	r, err := CorrelationMatrix(series, m)
	if err != nil {
		return nil, err
	}
	return ESPRIT(r, nSignals, fs)
}
