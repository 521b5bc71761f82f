package dsp

import (
	"fmt"
	"math/cmplx"
)

// Spectrum holds a one-sided magnitude spectrum of a real signal.
type Spectrum struct {
	// Freqs holds the center frequency of each bin in Hz.
	Freqs []float64
	// Mag holds the magnitude of each bin.
	Mag []float64
	// Complex holds the raw complex bins matching Freqs (one-sided).
	Complex []complex128
	// N is the transform length used (after zero padding).
	N int
	// Fs is the sample rate in Hz.
	Fs float64
}

// MagnitudeSpectrum computes the one-sided magnitude spectrum of real
// signal x sampled at fs. If padTo > len(x), the signal is zero-padded to
// padTo points before the transform (for finer bin spacing).
func MagnitudeSpectrum(x []float64, fs float64, padTo int) (*Spectrum, error) {
	if err := validateFFTArgs(len(x)); err != nil {
		return nil, err
	}
	if fs <= 0 {
		return nil, fmt.Errorf("dsp: sample rate must be positive, got %v", fs)
	}
	n := len(x)
	if padTo > n {
		n = padTo
	}
	// Transform in pooled scratch: zero-padding and the full-length bins are
	// internal to this call, so neither needs a fresh allocation.
	binsP, bins := getComplexScratch(n)
	defer putComplexScratch(binsP)
	for i, v := range x {
		bins[i] = complex(v, 0)
	}
	for i := len(x); i < n; i++ {
		bins[i] = 0
	}
	fftInPlace(bins, false)
	half := n/2 + 1
	sp := &Spectrum{
		Freqs:   make([]float64, half),
		Mag:     make([]float64, half),
		Complex: make([]complex128, half),
		N:       n,
		Fs:      fs,
	}
	for k := 0; k < half; k++ {
		sp.Freqs[k] = BinFrequency(k, n, fs)
		sp.Mag[k] = cmplx.Abs(bins[k])
		sp.Complex[k] = bins[k]
	}
	return sp, nil
}

// PeakBin returns the index of the largest-magnitude bin whose frequency
// lies in [fLo, fHi]. It returns -1 if no bin falls in the band.
func (s *Spectrum) PeakBin(fLo, fHi float64) int {
	best := -1
	for k, f := range s.Freqs {
		if f < fLo || f > fHi {
			continue
		}
		if best == -1 || s.Mag[k] > s.Mag[best] {
			best = k
		}
	}
	return best
}

// PeakFrequency returns the frequency of the strongest bin in [fLo, fHi]
// refined by parabolic interpolation of the log magnitude around the peak.
// ok is false when the band contains no bins.
func (s *Spectrum) PeakFrequency(fLo, fHi float64) (freq float64, ok bool) {
	k := s.PeakBin(fLo, fHi)
	if k < 0 {
		return 0, false
	}
	return s.interpolatePeak(k), true
}

// interpolatePeak refines bin k with a parabolic fit over (k-1, k, k+1).
func (s *Spectrum) interpolatePeak(k int) float64 {
	if k <= 0 || k >= len(s.Mag)-1 {
		return s.Freqs[k]
	}
	a, b, c := s.Mag[k-1], s.Mag[k], s.Mag[k+1]
	denom := a - 2*b + c
	if denom == 0 {
		return s.Freqs[k]
	}
	delta := 0.5 * (a - c) / denom
	if delta > 0.5 {
		delta = 0.5
	} else if delta < -0.5 {
		delta = -0.5
	}
	return (float64(k) + delta) * s.Fs / float64(s.N)
}

// SpectralPeak is one local maximum of a spectrum.
type SpectralPeak struct {
	// Freq is the interpolated peak frequency in Hz.
	Freq float64
	// Mag is the peak bin magnitude.
	Mag float64
}

// TopPeaksDetailed returns up to count local spectral maxima within
// [fLo, fHi] with their magnitudes, ordered by descending magnitude. A bin
// is a local maximum if it exceeds both neighbors.
func (s *Spectrum) TopPeaksDetailed(fLo, fHi float64, count int) []SpectralPeak {
	var peaks []SpectralPeak
	for k := 1; k < len(s.Mag)-1; k++ {
		if s.Freqs[k] < fLo || s.Freqs[k] > fHi {
			continue
		}
		if s.Mag[k] > s.Mag[k-1] && s.Mag[k] >= s.Mag[k+1] {
			peaks = append(peaks, SpectralPeak{Freq: s.interpolatePeak(k), Mag: s.Mag[k]})
		}
	}
	// Selection sort by magnitude is fine for the handful of peaks here.
	out := make([]SpectralPeak, 0, count)
	for len(out) < count && len(peaks) > 0 {
		best := 0
		for i, p := range peaks {
			if p.Mag > peaks[best].Mag {
				best = i
			}
		}
		out = append(out, peaks[best])
		peaks = append(peaks[:best], peaks[best+1:]...)
	}
	return out
}

// TopPeaks returns up to count local spectral maxima within [fLo, fHi],
// ordered by descending magnitude.
func (s *Spectrum) TopPeaks(fLo, fHi float64, count int) []float64 {
	detailed := s.TopPeaksDetailed(fLo, fHi, count)
	out := make([]float64, len(detailed))
	for i, p := range detailed {
		out[i] = p.Freq
	}
	return out
}

// Power returns the total spectral power within [fLo, fHi].
func (s *Spectrum) Power(fLo, fHi float64) float64 {
	var p float64
	for k, f := range s.Freqs {
		if f >= fLo && f <= fHi {
			p += s.Mag[k] * s.Mag[k]
		}
	}
	return p
}

// DominantFrequency is a convenience wrapper: zero-pad x to at least
// minPad points, transform, and return the interpolated peak frequency in
// [fLo, fHi].
func DominantFrequency(x []float64, fs, fLo, fHi float64, minPad int) (float64, error) {
	padTo := len(x)
	if minPad > padTo {
		padTo = minPad
	}
	padTo = NextPowerOfTwo(padTo)
	sp, err := MagnitudeSpectrum(RemoveMean(x), fs, padTo)
	if err != nil {
		return 0, err
	}
	f, ok := sp.PeakFrequency(fLo, fHi)
	if !ok {
		return 0, fmt.Errorf("dsp: no spectral bins in band [%v, %v] Hz", fLo, fHi)
	}
	return f, nil
}

// Parseval computes time-domain and frequency-domain energies of x; useful
// for verifying transforms. It returns (Σx², Σ|X|²/N).
func Parseval(x []float64) (timeEnergy, freqEnergy float64) {
	for _, v := range x {
		timeEnergy += v * v
	}
	bins := FFTReal(x)
	for _, b := range bins {
		freqEnergy += real(b)*real(b) + imag(b)*imag(b)
	}
	if len(x) > 0 {
		freqEnergy /= float64(len(x))
	}
	return timeEnergy, freqEnergy
}
