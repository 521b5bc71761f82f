package dsp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDownsample(t *testing.T) {
	x := []float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	got, err := Downsample(x, 3)
	if err != nil {
		t.Fatalf("Downsample: %v", err)
	}
	want := []float64{0, 3, 6, 9}
	if len(got) != len(want) {
		t.Fatalf("length = %d, want %d", len(got), len(want))
	}
	for i, w := range want {
		if got[i] != w {
			t.Errorf("got[%d] = %v, want %v", i, got[i], w)
		}
	}
	if _, err := Downsample(x, 0); err == nil {
		t.Error("want error for zero factor")
	}
}

func TestDecimatePreservesLowFrequency(t *testing.T) {
	fs := 400.0
	x := make([]float64, 4000)
	for i := range x {
		ti := float64(i) / fs
		x[i] = math.Sin(2*math.Pi*0.3*ti) + 0.3*math.Sin(2*math.Pi*150*ti)
	}
	y, err := Decimate(x, 20)
	if err != nil {
		t.Fatalf("Decimate: %v", err)
	}
	f, err := DominantFrequency(y, fs/20, 0.1, 1.0, 4096)
	if err != nil {
		t.Fatalf("DominantFrequency: %v", err)
	}
	if math.Abs(f-0.3) > 0.03 {
		t.Errorf("dominant frequency after decimation = %v, want ~0.3", f)
	}
}

func TestMovingAverageConstant(t *testing.T) {
	x := []float64{5, 5, 5, 5, 5}
	got := MovingAverage(x, 3)
	for i, v := range got {
		if math.Abs(v-5) > 1e-12 {
			t.Errorf("ma[%d] = %v, want 5", i, v)
		}
	}
}

func TestRemoveMean(t *testing.T) {
	out := RemoveMean([]float64{1, 2, 3})
	if math.Abs(Mean(out)) > 1e-12 {
		t.Errorf("mean after RemoveMean = %v", Mean(out))
	}
}

func TestDetrendLinear(t *testing.T) {
	// Pure ramp detrends to ~zero.
	x := make([]float64, 50)
	for i := range x {
		x[i] = 3 + 0.5*float64(i)
	}
	out := DetrendLinear(x)
	for i, v := range out {
		if math.Abs(v) > 1e-9 {
			t.Errorf("detrended ramp [%d] = %v, want 0", i, v)
		}
	}
	if got := DetrendLinear([]float64{7}); got[0] != 0 {
		t.Errorf("single sample detrend = %v, want 0", got[0])
	}
}

func TestDetrendHampelRemovesDrift(t *testing.T) {
	x := make([]float64, 2000)
	for i := range x {
		x[i] = 10 + 0.002*float64(i) + 0.5*math.Sin(2*math.Pi*float64(i)/100)
	}
	trend, err := RunningMedianStridedRange(nil, x, 500, 1, 0, len(x))
	if err != nil {
		t.Fatalf("RunningMedianStridedRange: %v", err)
	}
	out := make([]float64, len(x))
	for i, v := range x {
		out[i] = v - trend[i]
	}
	if math.Abs(Mean(out[250:1750])) > 0.1 {
		t.Errorf("mean after Hampel detrend = %v, want ~0", Mean(out[250:1750]))
	}
	// The oscillation should survive.
	if MeanAbsDev(out[250:1750]) < 0.2 {
		t.Errorf("oscillation destroyed by detrend: MAD = %v", MeanAbsDev(out[250:1750]))
	}
}

func TestWindows(t *testing.T) {
	w := Hamming(64)
	if len(w) != 64 {
		t.Errorf("hamming: length %d", len(w))
	}
	// Symmetric.
	for i := 0; i < 32; i++ {
		if math.Abs(w[i]-w[63-i]) > 1e-12 {
			t.Errorf("hamming: asymmetric at %d", i)
		}
	}
	// Single-point windows are 1.
	if one := Hamming(1); one[0] != 1 {
		t.Errorf("hamming(1) = %v, want 1", one[0])
	}
}

func TestFindPeaksSimpleSine(t *testing.T) {
	fs := 20.0
	x := make([]float64, 600)
	for i := range x {
		x[i] = math.Sin(2 * math.Pi * 0.25 * float64(i) / fs) // 0.25 Hz, 15 bpm
	}
	peaks, err := FindPeaks(x, 51, 0)
	if err != nil {
		t.Fatalf("FindPeaks: %v", err)
	}
	bpm, ok := RateFromPeaks(peaks, fs)
	if !ok {
		t.Fatal("RateFromPeaks failed")
	}
	if math.Abs(bpm-15) > 0.5 {
		t.Errorf("bpm = %v, want ~15", bpm)
	}
}

func TestFindPeaksRejectsFakePeaks(t *testing.T) {
	fs := 20.0
	rng := rand.New(rand.NewSource(2))
	x := make([]float64, 600)
	for i := range x {
		x[i] = math.Sin(2*math.Pi*0.25*float64(i)/fs) + 0.05*rng.NormFloat64()
	}
	peaks, err := FindPeaks(x, 51, 40)
	if err != nil {
		t.Fatalf("FindPeaks: %v", err)
	}
	// 600 samples at 20 Hz = 30 s; a 0.25 Hz signal has ~7-8 true peaks.
	if len(peaks) < 6 || len(peaks) > 9 {
		t.Errorf("peak count = %d, want 6..9", len(peaks))
	}
}

func TestFindPeaksErrors(t *testing.T) {
	if _, err := FindPeaks([]float64{1, 2, 1}, 0, 0); err == nil {
		t.Error("want error for zero window")
	}
	peaks, err := FindPeaks(nil, 5, 0)
	if err != nil || peaks != nil {
		t.Errorf("FindPeaks(nil) = %v, %v", peaks, err)
	}
	if _, ok := RateFromPeaks([]Peak{{Index: 3}}, 20); ok {
		t.Error("RateFromPeaks should fail with one peak")
	}
}

func TestEnforceMinDistanceKeepsStrongest(t *testing.T) {
	x := []float64{0, 1, 0, 0.9, 0, 0, 0, 0, 2, 0}
	peaks, err := FindPeaks(x, 3, 4)
	if err != nil {
		t.Fatalf("FindPeaks: %v", err)
	}
	// Peaks at 1 (1.0), 3 (0.9), 8 (2.0); minDistance 4 drops index 3.
	if len(peaks) != 2 || peaks[0].Index != 1 || peaks[1].Index != 8 {
		t.Errorf("peaks = %+v", peaks)
	}
}

// Property: WrapPhase output in (-π, π] and UnwrapPhase(wrapped) recovers a
// continuous signal that differs from the original by a constant multiple
// of 2π.
func TestPhaseWrapUnwrapProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(200)
		orig := make([]float64, n)
		wrapped := make([]float64, n)
		phase := r.Float64() * 10
		for i := range orig {
			phase += (r.Float64()*2 - 1) * 3.0 // steps strictly < π
			orig[i] = phase
			wrapped[i] = WrapPhase(phase)
			if wrapped[i] <= -math.Pi || wrapped[i] > math.Pi {
				return false
			}
		}
		un := UnwrapPhase(wrapped)
		base := orig[0] - un[0]
		if math.Abs(math.Mod(base, 2*math.Pi)) > 1e-9 && math.Abs(math.Abs(math.Mod(base, 2*math.Pi))-2*math.Pi) > 1e-9 {
			return false
		}
		for i := range un {
			if math.Abs((un[i]+base)-orig[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: rng}); err != nil {
		t.Error(err)
	}
}

func TestSpectrumPeakAndInterpolation(t *testing.T) {
	fs := 20.0
	f0 := 0.273 // off-bin frequency
	x := make([]float64, 1200)
	for i := range x {
		x[i] = math.Sin(2 * math.Pi * f0 * float64(i) / fs)
	}
	sp, err := MagnitudeSpectrum(x, fs, 4096)
	if err != nil {
		t.Fatalf("MagnitudeSpectrum: %v", err)
	}
	got, ok := sp.PeakFrequency(0.1, 0.7)
	if !ok {
		t.Fatal("no peak found")
	}
	if math.Abs(got-f0) > 0.005 {
		t.Errorf("peak frequency = %v, want %v", got, f0)
	}
}

func TestSpectrumTopPeaksTwoTones(t *testing.T) {
	fs := 20.0
	x := make([]float64, 2400)
	for i := range x {
		ti := float64(i) / fs
		x[i] = math.Sin(2*math.Pi*0.2*ti) + 0.8*math.Sin(2*math.Pi*0.35*ti)
	}
	sp, err := MagnitudeSpectrum(x, fs, 8192)
	if err != nil {
		t.Fatalf("MagnitudeSpectrum: %v", err)
	}
	peaks := sp.TopPeaks(0.1, 0.6, 2)
	if len(peaks) != 2 {
		t.Fatalf("TopPeaks = %v", peaks)
	}
	// Strongest first.
	if math.Abs(peaks[0]-0.2) > 0.01 || math.Abs(peaks[1]-0.35) > 0.01 {
		t.Errorf("peaks = %v, want [0.2 0.35]", peaks)
	}
}

func TestSpectrumErrors(t *testing.T) {
	if _, err := MagnitudeSpectrum(nil, 20, 0); err == nil {
		t.Error("want error for empty input")
	}
	if _, err := MagnitudeSpectrum([]float64{1}, -1, 0); err == nil {
		t.Error("want error for negative fs")
	}
	sp, _ := MagnitudeSpectrum([]float64{1, 2, 3, 4}, 4, 0)
	if k := sp.PeakBin(10, 20); k != -1 {
		t.Errorf("PeakBin out of band = %d, want -1", k)
	}
}

// firGain returns the filter's magnitude response at freq (Hz) for
// sample rate fs, evaluated from its taps.
func firGain(f *FIRFilter, freq, fs float64) float64 {
	var re, im float64
	w := 2 * math.Pi * freq / fs
	for n, h := range f.Taps {
		re += h * math.Cos(w*float64(n))
		im -= h * math.Sin(w*float64(n))
	}
	return math.Hypot(re, im)
}

func TestFIRLowPass(t *testing.T) {
	fs := 400.0
	f, err := LowPassFIR(5, fs, 101)
	if err != nil {
		t.Fatalf("LowPassFIR: %v", err)
	}
	// Passband gain ~1, stopband gain small.
	if g := firGain(f, 0.5, fs); math.Abs(g-1) > 0.05 {
		t.Errorf("passband gain = %v", g)
	}
	if g := firGain(f, 50, fs); g > 0.05 {
		t.Errorf("stopband gain = %v", g)
	}
}

func TestFIRBandPassHeartBand(t *testing.T) {
	fs := 20.0
	f, err := BandPassFIR(0.625, 2.5, fs, 127)
	if err != nil {
		t.Fatalf("BandPassFIR: %v", err)
	}
	if g := firGain(f, 1.2, fs); g < 0.8 {
		t.Errorf("in-band gain = %v", g)
	}
	if g := firGain(f, 0.2, fs); g > 0.2 {
		t.Errorf("breathing-band leakage = %v", g)
	}
	if g := firGain(f, 5, fs); g > 0.2 {
		t.Errorf("high-band leakage = %v", g)
	}
}

func TestFIRApplyPreservesAlignment(t *testing.T) {
	fs := 20.0
	f, err := LowPassFIR(1, fs, 51)
	if err != nil {
		t.Fatalf("LowPassFIR: %v", err)
	}
	x := make([]float64, 400)
	for i := range x {
		x[i] = math.Sin(2 * math.Pi * 0.3 * float64(i) / fs)
	}
	y := f.Apply(x)
	if len(y) != len(x) {
		t.Fatalf("length changed: %d != %d", len(y), len(x))
	}
	// Peak positions should stay aligned (group delay compensated).
	px, _ := FindPeaks(x[50:350], 21, 0)
	py, _ := FindPeaks(y[50:350], 21, 0)
	if len(px) == 0 || len(px) != len(py) {
		t.Fatalf("peak counts differ: %d vs %d", len(px), len(py))
	}
	for i := range px {
		d := px[i].Index - py[i].Index
		if d < -2 || d > 2 {
			t.Errorf("peak %d misaligned by %d samples", i, d)
		}
	}
}

func TestFIRErrors(t *testing.T) {
	if _, err := LowPassFIR(0, 20, 11); err == nil {
		t.Error("want error for zero cutoff")
	}
	if _, err := LowPassFIR(1, 20, 10); err == nil {
		t.Error("want error for even taps")
	}
	if _, err := LowPassFIR(15, 20, 11); err == nil {
		t.Error("want error for cutoff above Nyquist")
	}
	if _, err := BandPassFIR(2, 1, 20, 11); err == nil {
		t.Error("want error for inverted band")
	}
}

func TestReflectIndex(t *testing.T) {
	// n=4: pattern ...(2)(1)(0)| 0 1 2 3 |(3)(2)(1)(0)(0)(1)...
	cases := map[int]int{-1: 0, -2: 1, 0: 0, 3: 3, 4: 3, 5: 2, 8: 0, 9: 1}
	for in, want := range cases {
		if got := reflectIndex(in, 4); got != want {
			t.Errorf("reflectIndex(%d, 4) = %d, want %d", in, got, want)
		}
	}
	if got := reflectIndex(5, 1); got != 0 {
		t.Errorf("reflectIndex(5, 1) = %d, want 0", got)
	}
}

func TestRefineFrequencyPhase(t *testing.T) {
	// The 3-bin phase method should beat raw bin resolution.
	fs := 20.0
	f0 := 1.07 // heart rate ~64 bpm
	n := 600   // 30 s
	x := make([]float64, n)
	for i := range x {
		x[i] = 0.3 * math.Sin(2*math.Pi*f0*float64(i)/fs)
	}
	got, err := RefineFrequencyPhase(x, fs, 0.625, 2.5, 1024)
	if err != nil {
		t.Fatalf("RefineFrequencyPhase: %v", err)
	}
	if math.Abs(got-f0) > 0.01 {
		t.Errorf("refined frequency = %v, want %v ± 0.01", got, f0)
	}
}

func TestRefineFrequencyPhaseErrors(t *testing.T) {
	if _, err := RefineFrequencyPhase(nil, 20, 0.6, 2.5, 0); err == nil {
		t.Error("want error for empty input")
	}
	if _, err := RefineFrequencyPhase([]float64{1, 2}, -5, 0.6, 2.5, 0); err == nil {
		t.Error("want error for bad fs")
	}
	x := make([]float64, 64)
	if _, err := RefineFrequencyPhase(x, 20, 9.5, 9.9, 0); err == nil {
		t.Error("want error for empty band")
	}
}

func TestQuadraticInterpolate(t *testing.T) {
	// Symmetric neighbors → no offset; descending → negative offset.
	if d := QuadraticInterpolate(1, 2, 1); d != 0 {
		t.Errorf("symmetric offset = %v", d)
	}
	if d := QuadraticInterpolate(1.9, 2, 1); d >= 0 {
		t.Errorf("offset should be negative, got %v", d)
	}
	if d := QuadraticInterpolate(0, 0, 0); d != 0 {
		t.Errorf("degenerate offset = %v", d)
	}
}
