package dsp

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestIsPowerOfTwo(t *testing.T) {
	cases := map[int]bool{1: true, 2: true, 4: true, 1024: true, 0: false, -4: false, 3: false, 6: false}
	for n, want := range cases {
		if got := IsPowerOfTwo(n); got != want {
			t.Errorf("IsPowerOfTwo(%d) = %v, want %v", n, got, want)
		}
	}
}

func TestNextPowerOfTwo(t *testing.T) {
	cases := map[int]int{0: 1, 1: 1, 2: 2, 3: 4, 5: 8, 16: 16, 17: 32, 1000: 1024}
	for n, want := range cases {
		if got := NextPowerOfTwo(n); got != want {
			t.Errorf("NextPowerOfTwo(%d) = %d, want %d", n, got, want)
		}
	}
}

// fft is the forward transform the spectrum paths run (fftInPlace),
// applied to a copy of x.
func fft(x []complex128) []complex128 {
	out := append([]complex128(nil), x...)
	fftInPlace(out, false)
	return out
}

func TestFFTImpulse(t *testing.T) {
	// DFT of a unit impulse is all ones.
	x := make([]complex128, 8)
	x[0] = 1
	got := fft(x)
	for k, v := range got {
		if cmplx.Abs(v-1) > 1e-12 {
			t.Errorf("bin %d = %v, want 1", k, v)
		}
	}
}

func TestFFTSinusoidBin(t *testing.T) {
	// A pure complex exponential at bin 3 lands entirely in bin 3.
	n := 64
	x := make([]complex128, n)
	for i := range x {
		x[i] = cmplx.Rect(1, 2*math.Pi*3*float64(i)/float64(n))
	}
	got := fft(x)
	for k, v := range got {
		want := 0.0
		if k == 3 {
			want = float64(n)
		}
		if math.Abs(cmplx.Abs(v)-want) > 1e-9 {
			t.Errorf("bin %d magnitude = %v, want %v", k, cmplx.Abs(v), want)
		}
	}
}

func TestFFTRealCosine(t *testing.T) {
	// cos at bin k splits into bins k and n-k with magnitude n/2.
	n, k := 128, 5
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Cos(2 * math.Pi * float64(k) * float64(i) / float64(n))
	}
	got := FFTReal(x)
	for bin, v := range got {
		want := 0.0
		if bin == k || bin == n-k {
			want = float64(n) / 2
		}
		if math.Abs(cmplx.Abs(v)-want) > 1e-9 {
			t.Errorf("bin %d magnitude = %v, want %v", bin, cmplx.Abs(v), want)
		}
	}
}

// Property: IFFT(fft(x)) == x for both power-of-two and arbitrary lengths.
func TestFFTRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(300)
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(r.NormFloat64(), r.NormFloat64())
		}
		y := IFFT(fft(x))
		for i := range x {
			if cmplx.Abs(x[i]-y[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rng}); err != nil {
		t.Error(err)
	}
}

// Property: linearity fft(a·x + b·y) == a·fft(x) + b·fft(y).
func TestFFTLinearityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(200)
		a := complex(r.NormFloat64(), r.NormFloat64())
		b := complex(r.NormFloat64(), r.NormFloat64())
		x := make([]complex128, n)
		y := make([]complex128, n)
		mix := make([]complex128, n)
		for i := range x {
			x[i] = complex(r.NormFloat64(), r.NormFloat64())
			y[i] = complex(r.NormFloat64(), r.NormFloat64())
			mix[i] = a*x[i] + b*y[i]
		}
		fx, fy, fmix := fft(x), fft(y), fft(mix)
		for k := range fmix {
			if cmplx.Abs(fmix[k]-(a*fx[k]+b*fy[k])) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rng}); err != nil {
		t.Error(err)
	}
}

// Property: Parseval's theorem Σ|x|² == Σ|X|²/N.
func TestParsevalProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(256)
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		te, fe := Parseval(x)
		if math.Abs(te-fe) > 1e-8*(1+te) {
			t.Errorf("n=%d: time energy %v != freq energy %v", n, te, fe)
		}
	}
}

// Bluestein (non power of two) must agree with a direct DFT.
func TestBluesteinMatchesDirectDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, n := range []int{3, 5, 7, 12, 30, 100, 243} {
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		got := fft(x)
		want := directDFT(x)
		for k := range want {
			if cmplx.Abs(got[k]-want[k]) > 1e-8 {
				t.Errorf("n=%d bin %d: got %v want %v", n, k, got[k], want[k])
			}
		}
	}
}

func directDFT(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var s complex128
		for i := 0; i < n; i++ {
			s += x[i] * cmplx.Rect(1, -2*math.Pi*float64(k)*float64(i)/float64(n))
		}
		out[k] = s
	}
	return out
}

func TestConvolve(t *testing.T) {
	got := Convolve([]float64{1, 2, 3}, []float64{0, 1, 0.5})
	want := []float64{0, 1, 2.5, 4, 1.5}
	if len(got) != len(want) {
		t.Fatalf("length = %d, want %d", len(got), len(want))
	}
	for i, w := range want {
		if math.Abs(got[i]-w) > 1e-12 {
			t.Errorf("conv[%d] = %v, want %v", i, got[i], w)
		}
	}
	if Convolve(nil, []float64{1}) != nil {
		t.Error("convolution with empty input should be nil")
	}
}

func TestZeroPad(t *testing.T) {
	out := ZeroPad([]float64{1, 2}, 4)
	if len(out) != 4 || out[0] != 1 || out[1] != 2 || out[2] != 0 || out[3] != 0 {
		t.Errorf("ZeroPad = %v", out)
	}
	trunc := ZeroPad([]float64{1, 2, 3}, 2)
	if len(trunc) != 2 || trunc[1] != 2 {
		t.Errorf("ZeroPad truncation = %v", trunc)
	}
}

func TestFFTEmptyAndSingle(t *testing.T) {
	if got := fft(nil); len(got) != 0 {
		t.Error("fft(nil) should be empty")
	}
	got := fft([]complex128{5})
	if len(got) != 1 || got[0] != 5 {
		t.Errorf("fft single = %v", got)
	}
	if got := IFFT([]complex128{5}); got[0] != 5 {
		t.Errorf("IFFT single = %v", got)
	}
}

func BenchmarkFFT1024(b *testing.B) {
	x := make([]complex128, 1024)
	rng := rand.New(rand.NewSource(1))
	for i := range x {
		x[i] = complex(rng.NormFloat64(), 0)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fft(x)
	}
}

func BenchmarkFFTBluestein1000(b *testing.B) {
	x := make([]complex128, 1000)
	rng := rand.New(rand.NewSource(1))
	for i := range x {
		x[i] = complex(rng.NormFloat64(), 0)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fft(x)
	}
}
