package music

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"phasebeat/internal/linalg"
)

// makeSinusoids generates nSeries time series, each the sum of the given
// sinusoid frequencies (Hz) with random phases plus Gaussian noise.
func makeSinusoids(rng *rand.Rand, freqs []float64, fs float64, n, nSeries int, noise float64) [][]float64 {
	out := make([][]float64, nSeries)
	for s := range out {
		series := make([]float64, n)
		phases := make([]float64, len(freqs))
		amps := make([]float64, len(freqs))
		for i := range freqs {
			phases[i] = rng.Float64() * 2 * math.Pi
			amps[i] = 0.8 + 0.4*rng.Float64()
		}
		for t := 0; t < n; t++ {
			ti := float64(t) / fs
			var v float64
			for i, f := range freqs {
				v += amps[i] * math.Sin(2*math.Pi*f*ti+phases[i])
			}
			series[t] = v + noise*rng.NormFloat64()
		}
		out[s] = series
	}
	return out
}

func TestCorrelationMatrixShapeAndSymmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	series := makeSinusoids(rng, []float64{0.3}, 2, 200, 3, 0.1)
	r, err := CorrelationMatrix(series, CorrelationOptions{WindowLen: 16, ForwardBackward: true})
	if err != nil {
		t.Fatalf("CorrelationMatrix: %v", err)
	}
	if r.Rows() != 16 || r.Cols() != 16 {
		t.Fatalf("shape = %dx%d, want 16x16", r.Rows(), r.Cols())
	}
	if !r.IsSymmetric(1e-10) {
		t.Error("correlation matrix not symmetric")
	}
	// Positive semidefinite: all eigenvalues >= -ε.
	eig, err := linalg.EigSym(r)
	if err != nil {
		t.Fatalf("EigSym: %v", err)
	}
	for _, v := range eig.Values {
		if v < -1e-9 {
			t.Errorf("negative eigenvalue %v", v)
		}
	}
}

func TestCorrelationMatrixErrors(t *testing.T) {
	if _, err := CorrelationMatrix(nil, CorrelationOptions{WindowLen: 1}); err == nil {
		t.Error("want error for tiny window")
	}
	short := [][]float64{make([]float64, 5)}
	if _, err := CorrelationMatrix(short, CorrelationOptions{WindowLen: 10}); !errors.Is(err, ErrNotEnoughData) {
		t.Errorf("want ErrNotEnoughData, got %v", err)
	}
}

func TestCorrelationDiagonalLoad(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	series := makeSinusoids(rng, []float64{0.3}, 2, 300, 1, 0)
	plain, err := CorrelationMatrix(series, CorrelationOptions{WindowLen: 8})
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := CorrelationMatrix(series, CorrelationOptions{WindowLen: 8, DiagonalLoad: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if loaded.At(0, 0) <= plain.At(0, 0) {
		t.Error("diagonal loading should increase diagonal entries")
	}
	if math.Abs(loaded.At(0, 1)-plain.At(0, 1)) > 1e-12 {
		t.Error("diagonal loading must not change off-diagonal entries")
	}
}

func TestRootMUSICSingleTone(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f0 := 0.27
	fs := 2.0
	series := makeSinusoids(rng, []float64{f0}, fs, 240, 5, 0.2)
	freqs, err := EstimateFrequencies(series, 1, fs, CorrelationOptions{WindowLen: 12, ForwardBackward: true})
	if err != nil {
		t.Fatalf("EstimateFrequencies: %v", err)
	}
	if len(freqs) != 1 {
		t.Fatalf("got %d frequencies, want 1", len(freqs))
	}
	if math.Abs(freqs[0]-f0) > 0.01 {
		t.Errorf("frequency = %v, want %v", freqs[0], f0)
	}
}

func TestRootMUSICThreeClosePersons(t *testing.T) {
	// The paper's Fig. 8 case: 0.1467, 0.2233 and 0.2483 Hz — the latter
	// two are too close for a short FFT but root-MUSIC separates them.
	rng := rand.New(rand.NewSource(4))
	want := []float64{0.1467, 0.2233, 0.2483}
	fs := 2.0
	series := makeSinusoids(rng, want, fs, 360, 30, 0.15)
	freqs, err := EstimateFrequencies(series, 3, fs, CorrelationOptions{
		WindowLen: 24, ForwardBackward: true,
	})
	if err != nil {
		t.Fatalf("EstimateFrequencies: %v", err)
	}
	if len(freqs) != 3 {
		t.Fatalf("got %d frequencies (%v), want 3", len(freqs), freqs)
	}
	for i, w := range want {
		if math.Abs(freqs[i]-w) > 0.015 {
			t.Errorf("freq[%d] = %v, want %v ± 0.015", i, freqs[i], w)
		}
	}
}

func TestRootMUSICErrors(t *testing.T) {
	r := linalg.Identity(8)
	if _, err := RootMUSIC(r, 0, 2); err == nil {
		t.Error("want error for zero signals")
	}
	if _, err := RootMUSIC(r, 4, 2); err == nil {
		t.Error("want error when 2*nSignals >= M")
	}
	if _, err := RootMUSIC(r, 1, 0); err == nil {
		t.Error("want error for bad fs")
	}
	rect := linalg.NewMatrix(4, 5)
	if _, err := RootMUSIC(rect, 1, 2); err == nil {
		t.Error("want error for non-square matrix")
	}
}

func BenchmarkRootMUSIC3Persons(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	series := makeSinusoids(rng, []float64{0.15, 0.22, 0.25}, 2, 360, 30, 0.15)
	r, err := CorrelationMatrix(series, CorrelationOptions{WindowLen: 24, ForwardBackward: true})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RootMUSIC(r, 3, 2); err != nil {
			b.Fatal(err)
		}
	}
}

func TestESPRITSingleTone(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	f0 := 0.31
	fs := 2.0
	series := makeSinusoids(rng, []float64{f0}, fs, 240, 5, 0.15)
	r, err := CorrelationMatrix(series, CorrelationOptions{WindowLen: 12, ForwardBackward: true})
	if err != nil {
		t.Fatal(err)
	}
	freqs, err := ESPRIT(r, 1, fs)
	if err != nil {
		t.Fatalf("ESPRIT: %v", err)
	}
	if len(freqs) != 1 || math.Abs(freqs[0]-f0) > 0.015 {
		t.Errorf("ESPRIT = %v, want [%v]", freqs, f0)
	}
}

func TestESPRITMatchesRootMUSIC(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	want := []float64{0.2, 0.35}
	fs := 2.0
	series := makeSinusoids(rng, want, fs, 360, 15, 0.1)
	r, err := CorrelationMatrix(series, CorrelationOptions{WindowLen: 20, ForwardBackward: true})
	if err != nil {
		t.Fatal(err)
	}
	rootF, err := RootMUSIC(r, 2, fs)
	if err != nil {
		t.Fatal(err)
	}
	espritF, err := ESPRIT(r, 2, fs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Abs(rootF[i]-want[i]) > 0.015 {
			t.Errorf("rootMUSIC[%d] = %v, want %v", i, rootF[i], want[i])
		}
		if math.Abs(espritF[i]-want[i]) > 0.015 {
			t.Errorf("ESPRIT[%d] = %v, want %v", i, espritF[i], want[i])
		}
	}
}

func TestESPRITErrors(t *testing.T) {
	r := linalg.Identity(8)
	if _, err := ESPRIT(r, 0, 2); err == nil {
		t.Error("want error for zero signals")
	}
	if _, err := ESPRIT(r, 4, 2); err == nil {
		t.Error("want error when 2*nSignals >= M")
	}
	if _, err := ESPRIT(r, 1, -1); err == nil {
		t.Error("want error for bad fs")
	}
	if _, err := ESPRIT(linalg.NewMatrix(3, 4), 1, 2); err == nil {
		t.Error("want error for rectangular matrix")
	}
}
