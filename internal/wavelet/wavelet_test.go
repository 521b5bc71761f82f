package wavelet

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// Literature values for db2 and db4 rec_lo (pywt/MATLAB), to pin the
// spectral-factorization construction and its ordering convention.
var (
	db2RecLo = []float64{
		0.48296291314469025, 0.8365163037378079,
		0.22414386804185735, -0.12940952255092145,
	}
	db4RecLo = []float64{
		0.23037781330885523, 0.7148465705525415,
		0.6308807679295904, -0.02798376941698385,
		-0.18703481171888114, 0.030841381835986965,
		0.032883011666982945, -0.010597401784997278,
	}
)

func TestDaubechiesMatchesLiterature(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want []float64
	}{
		{2, db2RecLo},
		{4, db4RecLo},
	} {
		w, err := Daubechies(tc.n)
		if err != nil {
			t.Fatalf("db%d: %v", tc.n, err)
		}
		if len(w.RecLo) != 2*tc.n {
			t.Fatalf("db%d: length %d, want %d", tc.n, len(w.RecLo), 2*tc.n)
		}
		for k, want := range tc.want {
			if math.Abs(w.RecLo[k]-want) > 1e-9 {
				t.Errorf("db%d rec_lo[%d] = %v, want %v", tc.n, k, w.RecLo[k], want)
			}
		}
	}
}

func TestDaubechiesOrthonormality(t *testing.T) {
	for n := 1; n <= 12; n++ {
		w, err := Daubechies(n)
		if err != nil {
			t.Fatalf("db%d: %v", n, err)
		}
		h := w.RecLo
		// Σh = √2.
		var sum float64
		for _, v := range h {
			sum += v
		}
		if math.Abs(sum-math.Sqrt2) > 1e-8 {
			t.Errorf("db%d: Σh = %v, want √2", n, sum)
		}
		// Σ h[k] h[k+2m] = δ_m.
		for m := 0; m < n; m++ {
			var dot float64
			for k := 0; k+2*m < len(h); k++ {
				dot += h[k] * h[k+2*m]
			}
			want := 0.0
			if m == 0 {
				want = 1
			}
			if math.Abs(dot-want) > 1e-8 {
				t.Errorf("db%d: shift-%d autocorrelation = %v, want %v", n, 2*m, dot, want)
			}
		}
		// High-pass has zero DC.
		var hiSum float64
		for _, v := range w.RecHi {
			hiSum += v
		}
		if math.Abs(hiSum) > 1e-8 {
			t.Errorf("db%d: Σg = %v, want 0", n, hiSum)
		}
		// Vanishing moments: Σ k^p g[k] = 0 for p < n (check p=1 for n>=2).
		if n >= 2 {
			var m1 float64
			for k, v := range w.RecHi {
				m1 += float64(k) * v
			}
			if math.Abs(m1) > 1e-6 {
				t.Errorf("db%d: first moment of g = %v, want 0", n, m1)
			}
		}
	}
}

func TestDaubechiesRange(t *testing.T) {
	if _, err := Daubechies(0); err == nil {
		t.Error("want error for db0")
	}
	if _, err := Daubechies(13); err == nil {
		t.Error("want error for db13")
	}
}

// haar is the db1/Haar wavelet.
func haar(t *testing.T) *Wavelet {
	t.Helper()
	w, err := Daubechies(1)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestHaar(t *testing.T) {
	w := haar(t)
	s := math.Sqrt2 / 2
	if math.Abs(w.RecLo[0]-s) > 1e-15 || math.Abs(w.RecLo[1]-s) > 1e-15 {
		t.Errorf("Haar rec_lo = %v", w.RecLo)
	}
	if math.Abs(w.DecHi[0]+s) > 1e-15 || math.Abs(w.DecHi[1]-s) > 1e-15 {
		t.Errorf("Haar dec_hi = %v", w.DecHi)
	}
}

func TestDWTHaarKnown(t *testing.T) {
	w := haar(t)
	x := []float64{1, 3, 5, 7}
	a, d := DWT(x, w)
	// Pairwise sums/differences scaled by 1/√2 (plus one boundary coeff).
	s := math.Sqrt2 / 2
	wantA := []float64{(1 + 3) * s, (5 + 7) * s}
	wantD := []float64{(3 - 1) * s, (7 - 5) * s}
	if len(a) != 2 {
		t.Fatalf("approx length = %d, want 2", len(a))
	}
	for i := range wantA {
		if math.Abs(a[i]-wantA[i]) > 1e-12 {
			t.Errorf("a[%d] = %v, want %v", i, a[i], wantA[i])
		}
		if math.Abs(math.Abs(d[i])-math.Abs(wantD[i])) > 1e-12 {
			t.Errorf("|d[%d]| = %v, want %v", i, math.Abs(d[i]), math.Abs(wantD[i]))
		}
	}
}

// Property: IDWT(DWT(x)) == x for every wavelet (MATLAB-style perfect
// reconstruction).
func TestSingleLevelPerfectReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for n := 1; n <= 10; n++ {
		w, err := Daubechies(n)
		if err != nil {
			t.Fatalf("db%d: %v", n, err)
		}
		for _, length := range []int{w.Len(), w.Len() + 1, 50, 51, 128} {
			x := make([]float64, length)
			for i := range x {
				x[i] = rng.NormFloat64()
			}
			a, d := DWT(x, w)
			y, err := IDWT(a, d, w, length)
			if err != nil {
				t.Fatalf("db%d n=%d: IDWT: %v", n, length, err)
			}
			for i := range x {
				if math.Abs(x[i]-y[i]) > 1e-9 {
					t.Fatalf("db%d n=%d: PR failed at %d: %v != %v",
						n, length, i, y[i], x[i])
				}
			}
		}
	}
}

// Property: multi-level Waverec inverts Wavedec for random signals, depths
// and wavelets.
func TestWavedecWaverecProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		order := 1 + r.Intn(6)
		w, err := Daubechies(order)
		if err != nil {
			return false
		}
		length := 64 + r.Intn(400)
		maxL := MaxLevel(length, w.Len())
		if maxL < 1 {
			return true
		}
		levels := 1 + r.Intn(maxL)
		x := make([]float64, length)
		for i := range x {
			x[i] = r.NormFloat64()
		}
		d, err := Wavedec(x, w, levels)
		if err != nil {
			return false
		}
		y, err := d.Waverec()
		if err != nil {
			return false
		}
		for i := range x {
			if math.Abs(x[i]-y[i]) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: rng}); err != nil {
		t.Error(err)
	}
}

// Property: band reconstructions are additive — approx-only plus all
// detail-only reconstructions equals the full signal.
func TestBandAdditivity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	w, err := Daubechies(4)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 500)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	d, err := Wavedec(x, w, 4)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := d.ReconstructApprox()
	if err != nil {
		t.Fatal(err)
	}
	for lev := 1; lev <= 4; lev++ {
		band, err := d.ReconstructDetails(lev)
		if err != nil {
			t.Fatal(err)
		}
		for i := range sum {
			sum[i] += band[i]
		}
	}
	for i := range x {
		if math.Abs(sum[i]-x[i]) > 1e-8 {
			t.Fatalf("additivity failed at %d: %v != %v", i, sum[i], x[i])
		}
	}
}

func TestApproxIsLowPass(t *testing.T) {
	// A low-frequency tone survives ReconstructApprox; a high-frequency
	// tone is routed to the details.
	fs := 20.0
	n := 1024
	w, err := Daubechies(4)
	if err != nil {
		t.Fatal(err)
	}
	low := make([]float64, n)  // 0.3 Hz — inside α4's [0, 0.625] Hz
	high := make([]float64, n) // 4 Hz — inside β2's [2.5, 5] Hz
	for i := range low {
		ti := float64(i) / fs
		low[i] = math.Sin(2 * math.Pi * 0.3 * ti)
		high[i] = math.Sin(2 * math.Pi * 4 * ti)
	}
	dLow, err := Wavedec(low, w, 4)
	if err != nil {
		t.Fatal(err)
	}
	dHigh, err := Wavedec(high, w, 4)
	if err != nil {
		t.Fatal(err)
	}
	aLow, err := dLow.ReconstructApprox()
	if err != nil {
		t.Fatal(err)
	}
	aHigh, err := dHigh.ReconstructApprox()
	if err != nil {
		t.Fatal(err)
	}
	if energy(aLow) < 0.8*energy(low) {
		t.Errorf("low tone attenuated by approx: %v vs %v", energy(aLow), energy(low))
	}
	if energy(aHigh) > 0.1*energy(high) {
		t.Errorf("high tone leaked into approx: %v vs %v", energy(aHigh), energy(high))
	}
	// And the heart band β3+β4 captures a 1.1 Hz tone.
	heart := make([]float64, n)
	for i := range heart {
		heart[i] = math.Sin(2 * math.Pi * 1.1 * float64(i) / fs)
	}
	dh, err := Wavedec(heart, w, 4)
	if err != nil {
		t.Fatal(err)
	}
	hb, err := dh.ReconstructDetails(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if energy(hb) < 0.5*energy(heart) {
		t.Errorf("heart band lost the 1.1 Hz tone: %v vs %v", energy(hb), energy(heart))
	}
}

func energy(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v * v
	}
	return s
}

func TestWavedecErrors(t *testing.T) {
	w := haar(t)
	if _, err := Wavedec(make([]float64, 100), w, 0); err == nil {
		t.Error("want error for level 0")
	}
	if _, err := Wavedec(make([]float64, 8), w, 10); err == nil {
		t.Error("want error for level deeper than MaxLevel")
	}
	d, err := Wavedec(make([]float64, 64), w, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.ReconstructDetails(0); err == nil {
		t.Error("want error for detail level 0")
	}
	if _, err := d.ReconstructDetails(4); err == nil {
		t.Error("want error for detail level beyond L")
	}
}

func TestIDWTErrors(t *testing.T) {
	w := haar(t)
	if _, err := IDWT([]float64{1}, []float64{1, 2}, w, 2); err == nil {
		t.Error("want error for mismatched coefficient lengths")
	}
	if _, err := IDWT(nil, nil, w, 0); err == nil {
		t.Error("want error for empty coefficients")
	}
	if _, err := IDWT([]float64{1}, []float64{1}, w, 50); err == nil {
		t.Error("want error for impossible output length")
	}
}

func TestMaxLevel(t *testing.T) {
	if got := MaxLevel(1024, 2); got != 10 {
		t.Errorf("MaxLevel(1024, haar) = %d, want 10", got)
	}
	if got := MaxLevel(500, 8); got != 6 {
		t.Errorf("MaxLevel(500, db4) = %d, want 6", got)
	}
	if got := MaxLevel(4, 8); got != 0 {
		t.Errorf("MaxLevel(4, db4) = %d, want 0", got)
	}
}

func BenchmarkWavedecDb4L4(b *testing.B) {
	w, err := Daubechies(4)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	x := make([]float64, 1200)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Wavedec(x, w, 4); err != nil {
			b.Fatal(err)
		}
	}
}
