package dsp

import (
	"fmt"
	"math"
)

// FIRFilter is a finite-impulse-response filter defined by its taps.
type FIRFilter struct {
	Taps []float64
}

// sinc returns sin(πx)/(πx) with sinc(0)=1.
func sinc(x float64) float64 {
	if x == 0 {
		return 1
	}
	px := math.Pi * x
	return math.Sin(px) / px
}

// LowPassFIR designs a windowed-sinc low-pass filter with the given cutoff
// (Hz), sample rate fs (Hz) and odd tap count.
func LowPassFIR(cutoff, fs float64, taps int) (*FIRFilter, error) {
	if err := validateFIRArgs(cutoff, fs, taps); err != nil {
		return nil, err
	}
	fc := cutoff / fs // normalized cutoff (cycles per sample)
	m := taps - 1
	w := Hamming(taps)
	h := make([]float64, taps)
	var sum float64
	for i := 0; i < taps; i++ {
		x := float64(i) - float64(m)/2
		h[i] = 2 * fc * sinc(2*fc*x) * w[i]
		sum += h[i]
	}
	// Normalize for unit DC gain.
	if sum != 0 {
		for i := range h {
			h[i] /= sum
		}
	}
	return &FIRFilter{Taps: h}, nil
}

// HighPassFIR designs a windowed-sinc high-pass filter by spectral
// inversion of the corresponding low-pass design. taps must be odd.
func HighPassFIR(cutoff, fs float64, taps int) (*FIRFilter, error) {
	lp, err := LowPassFIR(cutoff, fs, taps)
	if err != nil {
		return nil, err
	}
	h := lp.Taps
	for i := range h {
		h[i] = -h[i]
	}
	h[(taps-1)/2] += 1
	return &FIRFilter{Taps: h}, nil
}

// BandPassFIR designs a windowed-sinc band-pass filter for [fLo, fHi] Hz by
// subtracting two low-pass designs. taps must be odd.
func BandPassFIR(fLo, fHi, fs float64, taps int) (*FIRFilter, error) {
	if fLo >= fHi {
		return nil, fmt.Errorf("dsp: band edges inverted: [%v, %v]", fLo, fHi)
	}
	lpHi, err := LowPassFIR(fHi, fs, taps)
	if err != nil {
		return nil, err
	}
	lpLo, err := LowPassFIR(fLo, fs, taps)
	if err != nil {
		return nil, err
	}
	h := make([]float64, taps)
	for i := range h {
		h[i] = lpHi.Taps[i] - lpLo.Taps[i]
	}
	return &FIRFilter{Taps: h}, nil
}

// Apply filters x and returns a signal of the same length, compensating the
// filter group delay so features stay aligned (zero-phase-like behaviour
// for the symmetric designs above). Edges are handled by symmetric signal
// extension.
func (f *FIRFilter) Apply(x []float64) []float64 {
	n := len(x)
	taps := len(f.Taps)
	if n == 0 || taps == 0 {
		out := make([]float64, n)
		copy(out, x)
		return out
	}
	half := (taps - 1) / 2
	ext := extendSymmetric(x, half, taps-1-half)
	conv := Convolve(ext, f.Taps)
	out := make([]float64, n)
	// Full convolution of ext (len n+taps-1) with taps has length
	// n+2(taps-1); the aligned segment starts at taps-1.
	copy(out, conv[taps-1:taps-1+n])
	return out
}

// extendSymmetric mirrors left samples on the left and right samples on the
// right (half-sample symmetry, like pywt's "symmetric" mode).
func extendSymmetric(x []float64, left, right int) []float64 {
	n := len(x)
	out := make([]float64, 0, left+n+right)
	for i := left - 1; i >= 0; i-- {
		out = append(out, x[reflectIndex(-(i+1), n)])
	}
	out = append(out, x...)
	for i := 0; i < right; i++ {
		out = append(out, x[reflectIndex(n+i, n)])
	}
	return out
}

// reflectIndex maps an out-of-range index into [0, n) using half-sample
// symmetric reflection (… x1 x0 | x0 x1 … xn-1 | xn-1 xn-2 …).
func reflectIndex(i, n int) int {
	if n == 1 {
		return 0
	}
	period := 2 * n
	i %= period
	if i < 0 {
		i += period
	}
	if i >= n {
		i = period - 1 - i
	}
	return i
}

func validateFIRArgs(cutoff, fs float64, taps int) error {
	if fs <= 0 {
		return fmt.Errorf("dsp: sample rate must be positive, got %v", fs)
	}
	if cutoff <= 0 || cutoff >= fs/2 {
		return fmt.Errorf("dsp: cutoff %v Hz outside (0, fs/2=%v)", cutoff, fs/2)
	}
	if taps < 3 || taps%2 == 0 {
		return fmt.Errorf("dsp: tap count must be odd and >= 3, got %d", taps)
	}
	return nil
}
