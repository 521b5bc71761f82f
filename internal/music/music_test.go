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
	r, err := CorrelationMatrix(series, 16)
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
	if _, err := CorrelationMatrix(nil, 1); err == nil {
		t.Error("want error for tiny window")
	}
	short := [][]float64{make([]float64, 5)}
	if _, err := CorrelationMatrix(short, 10); !errors.Is(err, ErrNotEnoughData) {
		t.Errorf("want ErrNotEnoughData, got %v", err)
	}
}

// TestCorrelationDiagonalLoad rebuilds the estimate by hand — the mean
// outer product of every window, forward-backward averaged — and checks
// that CorrelationMatrix adds 1e-6 times its average eigenvalue to the
// diagonal and nothing elsewhere.
func TestCorrelationDiagonalLoad(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	series := makeSinusoids(rng, []float64{0.3}, 2, 300, 1, 0)
	const m = 8
	var raw [m][m]float64
	count := 0
	for _, s := range series {
		for start := 0; start+m <= len(s); start++ {
			for i := 0; i < m; i++ {
				for j := 0; j < m; j++ {
					raw[i][j] += s[start+i] * s[start+j]
				}
			}
			count++
		}
	}
	var want [m][m]float64
	trace := 0.0
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			want[i][j] = (raw[i][j] + raw[m-1-i][m-1-j]) / 2 / float64(count)
		}
		trace += want[i][i]
	}
	loaded, err := CorrelationMatrix(series, m)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			w := want[i][j]
			if i == j {
				w += 1e-6 * trace / m
			}
			if math.Abs(loaded.At(i, j)-w) > 1e-12 {
				t.Errorf("R[%d][%d] = %v, want %v", i, j, loaded.At(i, j), w)
			}
		}
	}
}

func TestRootMUSICSingleTone(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f0 := 0.27
	fs := 2.0
	series := makeSinusoids(rng, []float64{f0}, fs, 240, 5, 0.2)
	freqs, err := EstimateFrequencies(series, 1, fs, 12)
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
	freqs, err := EstimateFrequencies(series, 3, fs, 24)
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
	r, err := CorrelationMatrix(series, 24)
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
	r, err := CorrelationMatrix(series, 12)
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
	r, err := CorrelationMatrix(series, 20)
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
