package dsp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// This file keeps the original sorted-slice kernels — O(w) memmove
// insert/remove and an O(w) merge for the MAD — as the exactness oracle
// for the production kernels in hampel.go.

// oracleWindow is the reference multiset: a sorted slice with memmove
// insert/remove.
type oracleWindow struct {
	sorted  []float64
	scratch []float64
}

func (w *oracleWindow) push(v float64) {
	i := lowerBound(w.sorted, v)
	w.sorted = append(w.sorted, 0)
	copy(w.sorted[i+1:], w.sorted[i:])
	w.sorted[i] = v
}

// remove drops the first element == v. Because -0 == +0 it may drop a
// zero of the other sign than the one that entered the window, which
// makes the sign of a zero median depend on the insertion history.
func (w *oracleWindow) remove(v float64) {
	i := lowerBound(w.sorted, v)
	if i < len(w.sorted) && w.sorted[i] == v {
		copy(w.sorted[i:], w.sorted[i+1:])
		w.sorted = w.sorted[:len(w.sorted)-1]
	}
}

func (w *oracleWindow) median() float64 {
	n := len(w.sorted)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return w.sorted[n/2]
	}
	return (w.sorted[n/2-1] + w.sorted[n/2]) / 2
}

// mad merges the two monotone halves of |sorted[i]-m| in O(w).
func (w *oracleWindow) mad(m float64) float64 {
	n := len(w.sorted)
	if n == 0 {
		return 0
	}
	w.scratch = w.scratch[:0]
	lo := lowerBound(w.sorted, m) - 1
	hi := lo + 1
	for len(w.scratch) < n {
		switch {
		case lo < 0:
			w.scratch = append(w.scratch, w.sorted[hi]-m)
			hi++
		case hi >= n:
			w.scratch = append(w.scratch, m-w.sorted[lo])
			lo--
		case m-w.sorted[lo] <= w.sorted[hi]-m:
			w.scratch = append(w.scratch, m-w.sorted[lo])
			lo--
		default:
			w.scratch = append(w.scratch, w.sorted[hi]-m)
			hi++
		}
	}
	if n%2 == 1 {
		return w.scratch[n/2]
	}
	return (w.scratch[n/2-1] + w.scratch[n/2]) / 2
}

// oracleHampelRange is the reference HampelRange (and, over the full
// range with view = x, the reference Hampel).
func oracleHampelRange(view []float64, viewStart, n, window int, nsigma float64, lo, hi int) []float64 {
	at := func(i int) float64 { return view[i-viewStart] }
	out := make([]float64, hi-lo)
	if lo == hi {
		return out
	}
	var med oracleWindow
	half := window / 2
	first := max(lo-half, 0)
	last := min(lo+half, n-1)
	for i := first; i <= last; i++ {
		med.push(at(i))
	}
	for i := lo; i < hi; i++ {
		if i > lo {
			if r := i + half; r < n {
				med.push(at(r))
			}
			if l := i - half - 1; l >= first {
				med.remove(at(l))
			}
		}
		m := med.median()
		mad := med.mad(m)
		sigma := hampelScale * mad
		if math.Abs(at(i)-m) > nsigma*sigma {
			out[i-lo] = m
		} else {
			out[i-lo] = at(i)
		}
	}
	return out
}

// oracleRunningMedianStridedRange is the reference
// RunningMedianStridedRange: the same anchor grid and interpolation, with
// the anchor medians read from the sorted-slice window.
func oracleRunningMedianStridedRange(x []float64, window, stride, lo, hi int) []float64 {
	n := len(x)
	out := make([]float64, hi-lo)
	if lo == hi {
		return out
	}
	half := window / 2
	nAnchors := (n-1)/stride + 1
	if (nAnchors-1)*stride != n-1 {
		nAnchors++
	}
	anchorAt := func(a int) int { return min(a*stride, n-1) }
	segOf := func(i int) int {
		seg := 0
		for seg < nAnchors-1 && anchorAt(seg+1) < i {
			seg++
		}
		return seg
	}
	aFrom := segOf(lo)
	aTo := min(segOf(hi-1)+1, nAnchors-1)
	anchorVal := make([]float64, aTo-aFrom+1)
	var med oracleWindow
	winLo := max(anchorAt(aFrom)-half, 0)
	winHi := winLo - 1
	for a := aFrom; a <= aTo; a++ {
		i := anchorAt(a)
		newLo := max(i-half, 0)
		newHi := min(i+half, n-1)
		for winHi < newHi {
			winHi++
			med.push(x[winHi])
		}
		for winLo < newLo {
			med.remove(x[winLo])
			winLo++
		}
		anchorVal[a-aFrom] = med.median()
	}
	seg := aFrom
	for i := lo; i < hi; i++ {
		for seg < nAnchors-1 && anchorAt(seg+1) < i {
			seg++
		}
		if seg == nAnchors-1 || anchorAt(seg) == i {
			out[i-lo] = anchorVal[seg-aFrom]
			continue
		}
		i0, i1 := anchorAt(seg), anchorAt(seg+1)
		frac := float64(i-i0) / float64(i1-i0)
		out[i-lo] = anchorVal[seg-aFrom]*(1-frac) + anchorVal[seg+1-aFrom]*frac
	}
	return out
}

// Test signal kinds: continuous noise on a slow drift with a few gross
// outliers; the same quantized to a coarse grid, so windows are full of
// ties (and of both signed zeros); and values a few ulps apart, which only
// the lowest radix digits of the ranking tell apart.
const (
	continuous = iota
	quantized
	ulps
	signalKinds
)

// oracleSignal returns a length-n test signal of the given kind.
func oracleSignal(rng *rand.Rand, n, kind int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Sin(float64(i)/37) + 0.4*rng.NormFloat64()
		if rng.Intn(40) == 0 {
			x[i] += 20 * rng.NormFloat64()
		}
		switch kind {
		case quantized:
			x[i] = math.Round(x[i]*2) / 2
		case ulps:
			x[i] = 1 + float64(rng.Intn(4096))*0x1p-52
		}
	}
	return x
}

// sameBits reports whether two float slices are bit-for-bit identical.
func sameBits(a, b []float64) (int, bool) {
	if len(a) != len(b) {
		return -1, false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i, false
		}
	}
	return 0, true
}

// sameValues reports whether two float slices are equal under ==. The
// trend kernel is compared this way: the sign of a zero median is not
// pinned, because the oracle itself is path-dependent there — its remove
// drops the first == match, so a -0 leaving the window can take a +0 with
// it — while the rank-based kernel tracks exactly which sample leaves.
func sameValues(a, b []float64) (int, bool) {
	if len(a) != len(b) {
		return -1, false
	}
	for i := range a {
		if a[i] != b[i] {
			return i, false
		}
	}
	return 0, true
}

// oracleRanges returns ranges of a length-n signal: the full range, both
// edges, the interior, degenerate spans, and a few random spans.
func oracleRanges(rng *rand.Rand, n int) [][2]int {
	rs := [][2]int{
		{0, n}, {0, 1}, {n - 1, n}, {0, 0}, {n, n},
		{0, n / 3}, {n / 3, 2 * n / 3}, {2 * n / 3, n}, {1, n - 1},
	}
	for k := 0; k < 4; k++ {
		lo := rng.Intn(n + 1)
		rs = append(rs, [2]int{lo, lo + rng.Intn(n-lo+1)})
	}
	return rs
}

// TestKernelsMatchOracle checks HampelInto, HampelRange and
// RunningMedianStridedRange against the sorted-slice oracle on random,
// tie-heavy and ulp-spaced inputs, odd and even windows (including windows longer than
// the series), strides 1–16, and ranges touching both edges. Hampel
// outputs must match bit for bit, trend outputs under ==.
func TestKernelsMatchOracle(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(400)
		for kind := 0; kind < signalKinds; kind++ {
			x := oracleSignal(rng, n, kind)
			for _, window := range []int{1, 2, 3, 4, 7, 10, 25, 50, 51, n, n + 1, 2*n + 3} {
				half := window / 2
				name := fmt.Sprintf("seed=%d n=%d kind=%d window=%d", seed, n, kind, window)
				for _, nsigma := range []float64{0, 0.01, 3} {
					want := oracleHampelRange(x, 0, n, window, nsigma, 0, n)
					got, err := HampelInto(make([]float64, 0, n), x, window, nsigma)
					if err != nil {
						t.Fatalf("%s: HampelInto: %v", name, err)
					}
					if i, ok := sameBits(got, want); !ok {
						t.Fatalf("%s nsigma=%v: HampelInto differs at %d", name, nsigma, i)
					}
					for _, rc := range oracleRanges(rng, n) {
						lo, hi := rc[0], rc[1]
						vLo, vHi := max(lo-half, 0), min(hi+half, n)
						if vLo > vHi {
							vLo, vHi = 0, 0
						}
						want := oracleHampelRange(x[vLo:vHi], vLo, n, window, nsigma, lo, hi)
						got, err := HampelRange(nil, x[vLo:vHi], vLo, n, window, nsigma, lo, hi)
						if err != nil {
							t.Fatalf("%s range [%d,%d): HampelRange: %v", name, lo, hi, err)
						}
						if i, ok := sameBits(got, want); !ok {
							t.Fatalf("%s nsigma=%v range [%d,%d): HampelRange differs at %d", name, nsigma, lo, hi, lo+i)
						}
					}
				}
				for stride := 1; stride <= 16; stride++ {
					lo := rng.Intn(n + 1)
					for _, rc := range [][2]int{{0, n}, {0, n / 3}, {2 * n / 3, n}, {lo, lo + rng.Intn(n-lo+1)}} {
						lo, hi := rc[0], rc[1]
						want := oracleRunningMedianStridedRange(x, window, stride, lo, hi)
						got, err := RunningMedianStridedRange(nil, x, window, stride, lo, hi)
						if err != nil {
							t.Fatalf("%s stride=%d range [%d,%d): %v", name, stride, lo, hi, err)
						}
						if i, ok := sameValues(got, want); !ok {
							t.Fatalf("%s stride=%d range [%d,%d): index %d: got %v, oracle %v",
								name, stride, lo, hi, lo+i, got[i], want[i])
						}
					}
				}
			}
		}
	}
}

// TestStrideCallPatternMatchesOracle replays the streaming engine's
// smoothing calls at the paper's operating point — the cold stride's full
// window, then per stride the head margin [0, m) and the new tail
// [n-slide-m, n), each widened by the small window's half for the detrend
// — and checks both kernels against the oracle on the exact views they
// are handed. These views are long enough to take the radix ranking; the
// short views of TestKernelsMatchOracle take the packed pdqsort.
func TestStrideCallPatternMatchesOracle(t *testing.T) {
	const (
		trendWindow  = paperTrendWindow
		smoothWindow = paperSmoothWindow
		nsigma       = 0.01
	)
	for seed := int64(1); seed <= 2; seed++ {
		rng := rand.New(rand.NewSource(seed))
		for kind := 0; kind < signalKinds; kind++ {
			for _, stride := range []int{1, 10, 16} {
				n := paperN + rng.Intn(7)
				slide := paperSlide + rng.Intn(50)
				x := oracleSignal(rng, n, kind)
				m := trendWindow/2 + stride + smoothWindow/2 + 4
				sh := smoothWindow / 2
				for _, rc := range [][2]int{{0, n}, {0, m}, {n - slide - m, n}} {
					lo, hi := rc[0], rc[1]
					dlo, dhi := max(lo-sh, 0), min(hi+sh, n)
					want := oracleRunningMedianStridedRange(x, trendWindow, stride, dlo, dhi)
					trend, err := RunningMedianStridedRange(nil, x, trendWindow, stride, dlo, dhi)
					if err != nil {
						t.Fatal(err)
					}
					if i, ok := sameValues(trend, want); !ok {
						t.Fatalf("seed=%d kind=%d stride=%d trend [%d,%d): differs at %d", seed, kind, stride, dlo, dhi, dlo+i)
					}
					detr := make([]float64, dhi-dlo)
					for j := range detr {
						detr[j] = x[dlo+j] - want[j]
					}
					wantH := oracleHampelRange(detr, dlo, n, smoothWindow, nsigma, lo, hi)
					gotH, err := HampelRange(nil, detr, dlo, n, smoothWindow, nsigma, lo, hi)
					if err != nil {
						t.Fatal(err)
					}
					if i, ok := sameBits(gotH, wantH); !ok {
						t.Fatalf("seed=%d kind=%d stride=%d hampel [%d,%d): differs at %d", seed, kind, stride, lo, hi, lo+i)
					}
				}
			}
		}
	}
}
