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

// CorrelationOptions configures CorrelationMatrix.
type CorrelationOptions struct {
	// WindowLen is the temporal window M — the dimension of the resulting
	// correlation matrix. Larger M gives finer frequency resolution but
	// needs more data and a bigger eigenproblem.
	WindowLen int
	// ForwardBackward enables forward-backward averaging, which improves
	// conditioning for the highly-correlated sinusoidal snapshots produced
	// by breathing signals.
	ForwardBackward bool
	// DiagonalLoad adds a small multiple of the identity (relative to the
	// average eigenvalue) for numerical stability. Zero disables loading.
	DiagonalLoad float64
}

// CorrelationMatrix estimates the M×M temporal correlation matrix from one
// or more time series ("snapshots" in the paper's sense: the 30 subcarrier
// phase-difference series all carry the same breathing frequencies). Every
// length-M sliding window of every series contributes one outer product —
// temporal smoothing that decorrelates coherent sinusoids.
func CorrelationMatrix(series [][]float64, opts CorrelationOptions) (*linalg.Matrix, error) {
	m := opts.WindowLen
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

	if opts.ForwardBackward {
		// R ← (R + J Rᵀ J)/2 with J the exchange matrix, averaged in
		// place so the hot stride path does not allocate a second M×M
		// scratch matrix per call.
		fbAverageInPlace(r)
	}
	if opts.DiagonalLoad > 0 {
		tr, err := r.Trace()
		if err != nil {
			return nil, err
		}
		load := opts.DiagonalLoad * tr / float64(m)
		for i := 0; i < m; i++ {
			r.Set(i, i, r.At(i, i)+load)
		}
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
