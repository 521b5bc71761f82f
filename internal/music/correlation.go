// Package music implements subspace frequency estimation for PhaseBeat's
// multi-person breathing estimator: temporal correlation matrices built
// from the 30 calibrated CSI phase-difference series (eq. (11)-(12) of the
// paper), the root-MUSIC algorithm, and least-squares ESPRIT over the same
// correlation front end.
package music

import (
	"errors"
	"fmt"

	"phasebeat/internal/linalg"
)

// ErrNotEnoughData reports that the input series are too short for the
// requested correlation window.
var ErrNotEnoughData = errors.New("music: not enough data")

// diagonalLoad is the multiple of the average eigenvalue CorrelationMatrix
// adds to the diagonal for numerical stability.
const diagonalLoad = 1e-6

// CorrelationMatrix estimates the m×m temporal correlation matrix from one
// or more time series ("snapshots" in the paper's sense: the 30 subcarrier
// phase-difference series all carry the same breathing frequencies). Every
// length-m sliding window of every series contributes one outer product —
// temporal smoothing that decorrelates coherent sinusoids. The window m is
// the matrix dimension: a larger m gives finer frequency resolution but
// needs more data and a bigger eigenproblem.
//
// The estimate is then forward-backward averaged, which improves
// conditioning for the highly correlated sinusoidal snapshots breathing
// produces, and diagonally loaded by diagonalLoad times the average
// eigenvalue.
func CorrelationMatrix(series [][]float64, m int) (*linalg.Matrix, error) {
	if m < 2 {
		return nil, fmt.Errorf("music: window length must be >= 2, got %d", m)
	}
	r := linalg.NewMatrix(m, m)
	count := 0
	for _, s := range series {
		for start := 0; start+m <= len(s); start++ {
			if err := r.OuterAccumulate(s[start:start+m], 1); err != nil {
				return nil, err
			}
			count++
		}
	}
	if count == 0 {
		return nil, fmt.Errorf("%w: no length-%d windows available", ErrNotEnoughData, m)
	}
	r.Scale(1 / float64(count))

	// R ← (R + J Rᵀ J)/2 with J the exchange matrix, averaged in place so
	// the hot stride path does not allocate a second m×m scratch matrix
	// per call.
	fbAverageInPlace(r)
	tr, err := r.Trace()
	if err != nil {
		return nil, err
	}
	load := diagonalLoad * tr / float64(m)
	for i := 0; i < m; i++ {
		r.Set(i, i, r.At(i, i)+load)
	}
	return r, nil
}

// fbAverageInPlace replaces r with (R + J Rᵀ J)/2 (J the exchange matrix)
// without scratch: the map (i, j) ↔ (m-1-i, m-1-j) is an involution, so
// each pair is averaged once.
func fbAverageInPlace(r *linalg.Matrix) {
	m := r.Rows()
	total := m * m
	for idx := 0; idx < total; idx++ {
		partner := total - 1 - idx
		if partner <= idx {
			break
		}
		i, j := idx/m, idx%m
		pi, pj := partner/m, partner%m
		avg := (r.At(i, j) + r.At(pi, pj)) / 2
		r.Set(i, j, avg)
		r.Set(pi, pj, avg)
	}
}
