// Package dsp implements the signal-processing substrate for PhaseBeat:
// FFTs, windows, spectra, Hampel and FIR filters, peak detection,
// resampling, detrending, phase utilities, and circular statistics.
// Everything is built from scratch on the standard library because the Go
// ecosystem has no suitable DSP dependency for this reproduction.
package dsp

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"math/cmplx"
	"sync"
)

// ErrEmptyInput reports an operation on an empty signal.
var ErrEmptyInput = errors.New("dsp: empty input")

// IsPowerOfTwo reports whether n is a positive power of two.
func IsPowerOfTwo(n int) bool { return n > 0 && n&(n-1) == 0 }

// NextPowerOfTwo returns the smallest power of two >= n (n must be > 0).
func NextPowerOfTwo(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << bits.Len(uint(n-1))
}

// IFFT returns the inverse discrete Fourier transform of x (normalized by
// 1/N so IFFT(FFT(x)) == x). The input is not modified.
func IFFT(x []complex128) []complex128 {
	out := make([]complex128, len(x))
	copy(out, x)
	fftInPlace(out, true)
	n := complex(float64(len(x)), 0)
	if len(x) > 0 {
		for i := range out {
			out[i] /= n
		}
	}
	return out
}

// FFTReal computes the DFT of a real signal, returning the full complex
// spectrum of the same length.
func FFTReal(x []float64) []complex128 {
	c := make([]complex128, len(x))
	for i, v := range x {
		c[i] = complex(v, 0)
	}
	fftInPlace(c, false)
	return c
}

// fftInPlace dispatches between radix-2 and Bluestein. inverse selects the
// conjugate transform (un-normalized).
func fftInPlace(x []complex128, inverse bool) {
	n := len(x)
	if n <= 1 {
		return
	}
	if IsPowerOfTwo(n) {
		radix2(x, inverse)
		return
	}
	bluestein(x, inverse)
}

// radix2 is the iterative decimation-in-time Cooley-Tukey FFT for power-of-
// two lengths.
func radix2(x []complex128, inverse bool) {
	n := len(x)
	// Bit-reversal permutation.
	shift := 64 - uint(bits.Len(uint(n-1)))
	for i := 0; i < n; i++ {
		j := int(bits.Reverse64(uint64(i)) >> shift)
		if j > i {
			x[i], x[j] = x[j], x[i]
		}
	}
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		step := sign * 2 * math.Pi / float64(size)
		wBase := cmplx.Rect(1, step)
		for start := 0; start < n; start += size {
			w := complex(1, 0)
			for k := 0; k < half; k++ {
				a := x[start+k]
				b := x[start+k+half] * w
				x[start+k] = a + b
				x[start+k+half] = a - b
				w *= wBase
			}
		}
	}
}

// complexScratchPool recycles the pure-scratch buffers of the Bluestein
// transform (and the padded spectrum path) so repeated FFTs of the same
// sizes allocate nothing at steady state.
var complexScratchPool = sync.Pool{New: func() any { return new([]complex128) }}

// getComplexScratch returns a pooled length-n complex slice with undefined
// contents (callers overwrite or zero it) plus the handle to return via
// putComplexScratch.
func getComplexScratch(n int) (*[]complex128, []complex128) {
	p := complexScratchPool.Get().(*[]complex128)
	s := *p
	if cap(s) < n {
		s = make([]complex128, n)
	} else {
		s = s[:n]
	}
	*p = s
	return p, s
}

func putComplexScratch(p *[]complex128) { complexScratchPool.Put(p) }

// bluestein computes an arbitrary-length DFT via the chirp-z transform,
// expressing it as a convolution evaluated with power-of-two FFTs.
func bluestein(x []complex128, inverse bool) {
	n := len(x)
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	// Chirp: w[k] = exp(sign·iπk²/n). Use k² mod 2n to avoid float blowup.
	chirpP, chirp := getComplexScratch(n)
	defer putComplexScratch(chirpP)
	for k := 0; k < n; k++ {
		kk := (int64(k) * int64(k)) % int64(2*n)
		chirp[k] = cmplx.Rect(1, sign*math.Pi*float64(kk)/float64(n))
	}
	m := NextPowerOfTwo(2*n - 1)
	aP, a := getComplexScratch(m)
	defer putComplexScratch(aP)
	bP, b := getComplexScratch(m)
	defer putComplexScratch(bP)
	for i := range a {
		a[i] = 0
	}
	for i := range b {
		b[i] = 0
	}
	for k := 0; k < n; k++ {
		a[k] = x[k] * chirp[k]
		b[k] = cmplx.Conj(chirp[k])
	}
	for k := 1; k < n; k++ {
		b[m-k] = cmplx.Conj(chirp[k])
	}
	radix2(a, false)
	radix2(b, false)
	for i := range a {
		a[i] *= b[i]
	}
	radix2(a, true)
	scale := complex(1/float64(m), 0)
	for k := 0; k < n; k++ {
		x[k] = a[k] * scale * chirp[k]
	}
}

// BinFrequency returns the center frequency of FFT bin k for an n-point
// transform at sample rate fs.
func BinFrequency(k, n int, fs float64) float64 {
	return float64(k) * fs / float64(n)
}

// ZeroPad returns x extended with zeros to length n. If n <= len(x) the
// signal is returned truncated to n. A new slice is always allocated.
func ZeroPad(x []float64, n int) []float64 {
	out := make([]float64, n)
	copy(out, x)
	return out
}

// Convolve returns the full linear convolution of a and b
// (length len(a)+len(b)-1), computed directly. For the filter lengths used
// in this project the direct method is faster than FFT convolution.
func Convolve(a, b []float64) []float64 {
	if len(a) == 0 || len(b) == 0 {
		return nil
	}
	out := make([]float64, len(a)+len(b)-1)
	for i, av := range a {
		if av == 0 {
			continue
		}
		for j, bv := range b {
			out[i+j] += av * bv
		}
	}
	return out
}

// validateFFTArgs is a helper for wrappers that require non-empty input.
func validateFFTArgs(n int) error {
	if n == 0 {
		return fmt.Errorf("%w: FFT of empty signal", ErrEmptyInput)
	}
	return nil
}
