package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"phasebeat/internal/dsp"
)

func TestParallelChunksCoversAllIndices(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 5, 64} {
		const n = 37
		hit := make([]int, n)
		err := parallelChunks(n, workers, func(lo, hi int) error {
			for i := lo; i < hi; i++ {
				hit[i]++
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, h := range hit {
			if h != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, h)
			}
		}
	}
}

func TestParallelChunksReturnsLowestIndexError(t *testing.T) {
	errLow := errors.New("low")
	errHigh := errors.New("high")
	for _, workers := range []int{1, 4} {
		err := parallelChunks(20, workers, func(lo, hi int) error {
			for i := lo; i < hi; i++ {
				switch i {
				case 3:
					return errLow
				case 17:
					return errHigh
				}
			}
			return nil
		})
		if !errors.Is(err, errLow) {
			t.Fatalf("workers=%d: got %v, want the lowest-index error", workers, err)
		}
	}
	if err := parallelChunks(0, 4, func(int, int) error { return errors.New("never") }); err != nil {
		t.Fatalf("n=0 should be a no-op, got %v", err)
	}
}

// TestCalibrateRejectsRaggedInput: SmoothAll and Downsample take only
// rectangular matrices.
func TestCalibrateRejectsRaggedInput(t *testing.T) {
	cfg := DefaultConfig()
	ragged := [][]float64{make([]float64, 4000), make([]float64, 3999)}
	if _, err := SmoothAll(ragged, &cfg); err == nil {
		t.Error("SmoothAll accepted a ragged matrix")
	}
	if _, err := Downsample(ragged, &cfg); err == nil {
		t.Error("Downsample accepted a ragged matrix")
	}
}

// randomPhaseMatrix fabricates a plausible multi-subcarrier phase-difference
// matrix for determinism tests.
func randomPhaseMatrix(nSub, n int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]float64, nSub)
	for s := range out {
		series := make([]float64, n)
		phase := rng.Float64() * 2 * math.Pi
		for i := range series {
			series[i] = 0.3*math.Sin(2*math.Pi*0.3*float64(i)/400+phase) + rng.NormFloat64()*0.05
		}
		out[s] = series
	}
	return out
}

func TestSmoothAllParallelismIsByteIdentical(t *testing.T) {
	phase := randomPhaseMatrix(12, 6000, 21)
	cfg := DefaultConfig()
	cfg.Parallelism = 1
	want, err := SmoothAll(phase, &cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{0, 2, 3, 8} {
		cfg.Parallelism = p
		got, err := SmoothAll(phase, &cfg)
		if err != nil {
			t.Fatal(err)
		}
		for s := range want {
			for i := range want[s] {
				if got[s][i] != want[s][i] {
					t.Fatalf("Parallelism=%d: subcarrier %d index %d: %v != %v",
						p, s, i, got[s][i], want[s][i])
				}
			}
		}
	}
}

func TestSmoothRangeMatchesSmooth(t *testing.T) {
	cfg := ConfigForRate(100)
	series := randomPhaseMatrix(1, 3000, 3)[0]
	// The reference runs the two dsp filters over the whole series:
	// subtract the strided trend median, then Hampel-smooth.
	n := len(series)
	trend, err := dsp.RunningMedianStridedRange(nil, series, cfg.TrendWindow, trendStride, 0, n)
	if err != nil {
		t.Fatal(err)
	}
	detrended := make([]float64, n)
	for i, v := range series {
		detrended[i] = v - trend[i]
	}
	full, err := dsp.Hampel(detrended, cfg.SmoothWindow, hampelThreshold)
	if err != nil {
		t.Fatal(err)
	}
	for _, rc := range [][2]int{{0, n}, {0, 600}, {1200, 1800}, {n - 600, n}, {0, 0}, {n / 2, n/2 + 1}} {
		lo, hi := rc[0], rc[1]
		got, err := smoothRangeInto(nil, series, &cfg, lo, hi, &smoothScratch{})
		if err != nil {
			t.Fatalf("range [%d,%d): %v", lo, hi, err)
		}
		if len(got) != hi-lo {
			t.Fatalf("range [%d,%d): got %d values", lo, hi, len(got))
		}
		for i, v := range got {
			if v != full[lo+i] {
				t.Fatalf("range [%d,%d): index %d: got %v, want %v", lo, hi, lo+i, v, full[lo+i])
			}
		}
	}
	if _, err := smoothRangeInto(nil, series, &cfg, -1, 10, &smoothScratch{}); err == nil {
		t.Fatal("want error for negative lo")
	}
}

func TestFilterEligible(t *testing.T) {
	a, b, c := []float64{1}, []float64{2}, []float64{3}
	series := [][]float64{a, b, c}
	cases := []struct {
		name     string
		eligible []bool
		want     [][]float64
	}{
		{"nil mask keeps all", nil, series},
		{"selects marked rows", []bool{true, false, true}, [][]float64{a, c}},
		{"short mask drops unmarked tail", []bool{false, true}, [][]float64{b}},
		{"all-false falls back to input", []bool{false, false, false}, series},
		{"empty mask falls back", []bool{}, series},
	}
	for _, tc := range cases {
		got := filterEligible(series, tc.eligible)
		if len(got) != len(tc.want) {
			t.Fatalf("%s: got %d rows, want %d", tc.name, len(got), len(tc.want))
		}
		for i := range got {
			if &got[i][0] != &tc.want[i][0] {
				t.Fatalf("%s: row %d is not the expected slice", tc.name, i)
			}
		}
	}
	if got := filterEligible(nil, nil); len(got) != 0 {
		t.Fatalf("nil series: got %d rows", len(got))
	}
}

func TestConfigRejectsNegativeParallelism(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Parallelism = -1
	if err := cfg.Validate(); err == nil {
		t.Fatal("want error for negative parallelism")
	}
	cfg.Parallelism = 4
	if err := cfg.Validate(); err != nil {
		t.Fatalf("Parallelism=4 should validate: %v", err)
	}
}
