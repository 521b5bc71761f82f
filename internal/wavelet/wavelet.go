// Package wavelet implements the discrete wavelet transform used by
// PhaseBeat's denoising stage: Daubechies filter construction (by spectral
// factorization — no coefficient tables), single- and multi-level DWT and
// inverse DWT compatible with the MATLAB/pywt convolution-downsampling
// convention, and band-selective reconstruction (keep the level-L
// approximation for the breathing signal, keep β_{L-1}+β_L for the heart
// signal).
package wavelet

import (
	"errors"
	"fmt"
	"math"
	"math/cmplx"

	"phasebeat/internal/linalg"
)

// ErrBadLevel reports an invalid decomposition level for the signal length.
var ErrBadLevel = errors.New("wavelet: invalid decomposition level")

// Wavelet is an orthogonal two-channel filter bank.
type Wavelet struct {
	// Name identifies the wavelet (e.g. "db4").
	Name string
	// DecLo and DecHi are the analysis low- and high-pass filters.
	DecLo, DecHi []float64
	// RecLo and RecHi are the synthesis low- and high-pass filters.
	RecLo, RecHi []float64
}

// Len returns the filter length.
func (w *Wavelet) Len() int { return len(w.RecLo) }

// Daubechies constructs the dbN wavelet (filter length 2N) for 1 <= N <= 12
// by spectral factorization: the roots of the Daubechies polynomial
// P(y) = Σ_k C(N-1+k, k) yᵏ are mapped to z-plane root pairs and the
// minimum-phase factor is kept.
func Daubechies(n int) (*Wavelet, error) {
	if n < 1 || n > 12 {
		return nil, fmt.Errorf("wavelet: db order %d outside [1, 12]", n)
	}
	name := fmt.Sprintf("db%d", n)
	if n == 1 {
		s := math.Sqrt2 / 2
		return fromRecLo(name, []float64{s, s}), nil
	}

	// P(y) = Σ_{k=0}^{N-1} binom(N-1+k, k) y^k.
	pCoeffs := make([]float64, n)
	for k := 0; k < n; k++ {
		pCoeffs[k] = binomial(n-1+k, k)
	}
	yRoots, err := linalg.NewPolyReal(pCoeffs).Roots()
	if err != nil {
		return nil, fmt.Errorf("wavelet: db%d factorization: %w", n, err)
	}

	// Each y-root maps to the quadratic z² + (4y-2)z + 1 = 0; keep the root
	// inside the unit circle (minimum phase).
	zRoots := make([]complex128, 0, n-1)
	for _, y := range yRoots {
		b := 4*y - 2
		disc := cmplx.Sqrt(b*b - 4)
		z1 := (-b + disc) / 2
		z2 := (-b - disc) / 2
		if cmplx.Abs(z1) <= cmplx.Abs(z2) {
			zRoots = append(zRoots, z1)
		} else {
			zRoots = append(zRoots, z2)
		}
	}

	// B(x) = (1+x)^N · Π (x - z_i); ascending coefficients.
	coeffs := []complex128{1}
	for i := 0; i < n; i++ {
		coeffs = polyMul(coeffs, []complex128{1, 1}) // (1 + x)
	}
	for _, z := range zRoots {
		coeffs = polyMul(coeffs, []complex128{-z, 1}) // (x - z)
	}
	if len(coeffs) != 2*n {
		return nil, fmt.Errorf("wavelet: db%d produced %d taps, want %d", n, len(coeffs), 2*n)
	}

	// Normalize to Σh = √2 and reverse into the pywt rec_lo ordering
	// (largest-magnitude taps first).
	var sum complex128
	for _, c := range coeffs {
		sum += c
	}
	recLo := make([]float64, 2*n)
	for k := range recLo {
		recLo[k] = real(coeffs[2*n-1-k] / sum * complex(math.Sqrt2, 0))
	}
	return fromRecLo(name, recLo), nil
}

// fromRecLo derives the full orthogonal filter bank from the synthesis
// low-pass filter using the pywt conventions:
//
//	dec_lo = reverse(rec_lo)
//	rec_hi[k] = (-1)^k rec_lo[L-1-k]
//	dec_hi = reverse(rec_hi)
func fromRecLo(name string, recLo []float64) *Wavelet {
	l := len(recLo)
	w := &Wavelet{
		Name:  name,
		RecLo: recLo,
		DecLo: make([]float64, l),
		RecHi: make([]float64, l),
		DecHi: make([]float64, l),
	}
	for k := 0; k < l; k++ {
		w.DecLo[k] = recLo[l-1-k]
		sign := 1.0
		if k%2 == 1 {
			sign = -1
		}
		w.RecHi[k] = sign * recLo[l-1-k]
	}
	for k := 0; k < l; k++ {
		w.DecHi[k] = w.RecHi[l-1-k]
	}
	return w
}

// polyMul multiplies two ascending-order complex polynomials.
func polyMul(a, b []complex128) []complex128 {
	out := make([]complex128, len(a)+len(b)-1)
	for i, av := range a {
		for j, bv := range b {
			out[i+j] += av * bv
		}
	}
	return out
}

// binomial returns C(n, k) as a float64.
func binomial(n, k int) float64 {
	if k < 0 || k > n {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	out := 1.0
	for i := 0; i < k; i++ {
		out = out * float64(n-i) / float64(i+1)
	}
	return out
}
