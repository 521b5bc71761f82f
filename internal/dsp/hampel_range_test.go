package dsp

import (
	"math"
	"math/rand"
	"testing"
)

// rangeCases spans edges, interiors, and degenerate spans of a length-n
// signal.
func rangeCases(n int) [][2]int {
	return [][2]int{
		{0, n}, {0, 1}, {n - 1, n}, {0, 0}, {n, n}, {n / 3, n / 3},
		{0, n / 4}, {n / 4, 3 * n / 4}, {3 * n / 4, n}, {n/2 - 1, n/2 + 1},
		{1, n - 1},
	}
}

func TestHampelRangeMatchesFull(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n = 500
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Sin(float64(i)/9) + rng.NormFloat64()*0.3
	}
	// Inject outliers so the replacement branch is exercised.
	for i := 10; i < n; i += 47 {
		x[i] += 25
	}
	for _, window := range []int{5, 21, 50} {
		for _, nsigma := range []float64{0.01, 3} {
			full, err := Hampel(x, window, nsigma)
			if err != nil {
				t.Fatal(err)
			}
			half := window / 2
			for _, rc := range rangeCases(n) {
				lo, hi := rc[0], rc[1]
				viewLo := lo - half
				if viewLo < 0 {
					viewLo = 0
				}
				viewHi := hi + half
				if viewHi > n {
					viewHi = n
				}
				if viewLo > viewHi {
					viewLo, viewHi = 0, 0
				}
				got, err := HampelRange(nil, x[viewLo:viewHi], viewLo, n, window, nsigma, lo, hi)
				if err != nil {
					t.Fatalf("window=%d range=[%d,%d): %v", window, lo, hi, err)
				}
				if len(got) != hi-lo {
					t.Fatalf("window=%d range=[%d,%d): got %d values", window, lo, hi, len(got))
				}
				for i, v := range got {
					if v != full[lo+i] {
						t.Fatalf("window=%d nsigma=%v range=[%d,%d): index %d: got %v, full %v",
							window, nsigma, lo, hi, lo+i, v, full[lo+i])
					}
				}
			}
		}
	}
}

func TestHampelRangeRejectsShortView(t *testing.T) {
	x := make([]float64, 100)
	if _, err := HampelRange(nil, x[40:60], 40, 100, 21, 0.01, 30, 70); err == nil {
		t.Fatal("want error for a view that does not cover the needed samples")
	}
	if _, err := HampelRange(nil, x, 0, 100, 21, 0.01, -1, 50); err == nil {
		t.Fatal("want error for negative lo")
	}
}

func TestRunningMedianStridedRangeMatchesFull(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const n = 487 // deliberately not a multiple of any stride below
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	for _, window := range []int{7, 31, 101} {
		for _, stride := range []int{1, 3, 10, 50} {
			full, err := RunningMedianStridedRange(nil, x, window, stride, 0, n)
			if err != nil {
				t.Fatal(err)
			}
			for _, rc := range rangeCases(n) {
				lo, hi := rc[0], rc[1]
				got, err := RunningMedianStridedRange(nil, x, window, stride, lo, hi)
				if err != nil {
					t.Fatalf("window=%d stride=%d range=[%d,%d): %v", window, stride, lo, hi, err)
				}
				if len(got) != hi-lo {
					t.Fatalf("window=%d stride=%d range=[%d,%d): got %d values", window, stride, lo, hi, len(got))
				}
				for i, v := range got {
					if v != full[lo+i] {
						t.Fatalf("window=%d stride=%d range=[%d,%d): index %d: got %v, full %v",
							window, stride, lo, hi, lo+i, v, full[lo+i])
					}
				}
			}
		}
	}
}

func TestHampelIntoReusesBuffer(t *testing.T) {
	x := make([]float64, 200)
	for i := range x {
		x[i] = math.Cos(float64(i) / 5)
	}
	dst := make([]float64, 0, len(x))
	out, err := HampelInto(dst, x, 21, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if &out[0] != &dst[:1][0] {
		t.Error("HampelInto should write into the provided buffer")
	}
	ref, err := Hampel(x, 21, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref {
		if out[i] != ref[i] {
			t.Fatalf("index %d: got %v, want %v", i, out[i], ref[i])
		}
	}
}
