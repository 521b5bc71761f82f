package dsp

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"
)

// hampelScale converts a median absolute deviation to an estimate of the
// standard deviation for Gaussian data (1/Φ⁻¹(0.75)).
const hampelScale = 1.4826

// Hampel applies a Hampel filter: for each sample, the median and the
// median absolute deviation (MAD) of a sliding window centered on the
// sample are computed; if the sample deviates from the window median by
// more than nsigma·1.4826·MAD it is replaced with the median.
//
// window is the full window length (an even value is extended by one to
// stay centered). PhaseBeat uses Hampel(x, 2000, 0.01) to extract the slow
// trend (the tiny threshold replaces nearly every sample with the local
// median) and Hampel(x, 50, 0.01) as a high-frequency smoother. Each sample
// costs O(w) for the window's memmove insert/remove plus O(log w) for its
// median and MAD. A NaN or ±Inf sample is an ErrNonFinite error.
func Hampel(x []float64, window int, nsigma float64) ([]float64, error) {
	return HampelInto(nil, x, window, nsigma)
}

// HampelInto is Hampel writing into dst (grown as needed), reusing pooled
// filter state so the steady-state cost is allocation-free when dst has
// capacity. It returns the filtered slice.
func HampelInto(dst, x []float64, window int, nsigma float64) ([]float64, error) {
	return HampelRange(dst, x, 0, len(x), window, nsigma, 0, len(x))
}

// HampelRange computes the same values Hampel(x, window, nsigma) would
// produce for the index range [lo, hi) of a length-n signal, without needing
// the whole signal: view holds x[viewStart : viewStart+len(view)] and must
// cover every sample the centered windows of [lo, hi) touch, i.e.
// [max(0, lo-window/2), min(n, hi+window/2)). Output index i of the result
// corresponds to signal index lo+i. The values are identical to the full
// filter's because a sample's output depends only on its centered window.
func HampelRange(dst, view []float64, viewStart, n, window int, nsigma float64, lo, hi int) ([]float64, error) {
	if window <= 0 {
		return nil, fmt.Errorf("dsp: Hampel window must be positive, got %d", window)
	}
	if lo < 0 || hi > n || lo > hi {
		return nil, fmt.Errorf("dsp: Hampel range [%d, %d) outside [0, %d)", lo, hi, n)
	}
	if lo == hi {
		return grow(dst, 0), nil
	}
	half := window / 2
	needLo := max(lo-half, 0)
	needHi := min(hi+half, n)
	if viewStart > needLo || viewStart+len(view) < needHi {
		return nil, fmt.Errorf("dsp: Hampel view [%d, %d) does not cover needed [%d, %d)",
			viewStart, viewStart+len(view), needLo, needHi)
	}
	// x[j] is signal sample needLo+j.
	x := view[needLo-viewStart : needHi-viewStart]
	if err := checkFinite(x, needLo); err != nil {
		return nil, err
	}
	out := grow(dst, hi-lo)
	med := getMedianWindow(window + 1)
	defer putMedianWindow(med)

	// Prime the window for index lo, then slide it one sample per output.
	for _, v := range x[:min(lo+half+1, n)-needLo] {
		med.push(v)
	}
	for i := lo; i < hi; i++ {
		if i > lo {
			if enter := i + half; enter < n {
				med.push(x[enter-needLo])
			}
			if leave := i - half - 1; leave >= 0 {
				med.remove(x[leave-needLo])
			}
		}
		v := x[i-needLo]
		m := med.median()
		sigma := hampelScale * med.mad(m)
		if math.Abs(v-m) > nsigma*sigma {
			out[i-lo] = m
		} else {
			out[i-lo] = v
		}
	}
	return out, nil
}

// grow returns dst resized to n, reallocating only when capacity is
// insufficient.
func grow[T any](dst []T, n int) []T {
	if cap(dst) < n {
		return make([]T, n)
	}
	return dst[:n]
}

// RunningMedianStrided evaluates the centered window median only at sample
// indices 0, stride, 2·stride, … and linearly interpolates between those
// anchor points; with stride 1 it is the exact running median. See
// RunningMedianStridedRange for the cost.
func RunningMedianStrided(x []float64, window, stride int) ([]float64, error) {
	return RunningMedianStridedRange(nil, x, window, stride, 0, len(x))
}

// RunningMedianStridedRange computes the same values
// RunningMedianStrided(x, window, stride) would produce for indices [lo, hi)
// of x, writing them into dst (grown as needed). Output index i corresponds
// to signal index lo+i. Anchor positions are derived from the full signal
// length, so a sub-range evaluation matches the full evaluation exactly —
// the invariant the incremental Monitor relies on.
//
// The samples the needed anchors' windows cover are ranked once (a radix
// sort for long views, a comparison sort for short ones); the window then
// slides as ±1 updates on a Fenwick tree over those ranks and each anchor
// median is a k-th-order-statistic descent, so every sample of a view of
// v samples costs O(log v) whatever the window length. A zero median's
// sign can differ from the sorted-slice kernel's: the ranking puts -0 just
// below +0, where that kernel's == comparisons saw one value.
func RunningMedianStridedRange(dst, x []float64, window, stride, lo, hi int) ([]float64, error) {
	if window <= 0 {
		return nil, fmt.Errorf("dsp: median window must be positive, got %d", window)
	}
	if stride <= 0 {
		return nil, fmt.Errorf("dsp: stride must be positive, got %d", stride)
	}
	n := len(x)
	if lo < 0 || hi > n || lo > hi {
		return nil, fmt.Errorf("dsp: median range [%d, %d) outside [0, %d)", lo, hi, n)
	}
	if lo == hi {
		return grow(dst, 0), nil
	}
	half := window / 2
	// Anchor medians at 0, stride, …, and always at the last index — the
	// same grid the full evaluation uses.
	nAnchors := (n-1)/stride + 1
	lastAnchor := (nAnchors - 1) * stride
	if lastAnchor != n-1 {
		nAnchors++
	}
	anchorAt := func(a int) int {
		i := a * stride
		if i > n-1 {
			i = n - 1
		}
		return i
	}
	// Interpolating output i uses anchors seg(i) and seg(i)+1 where seg(i)
	// is the last anchor strictly before i (clamped to 0). Evaluate medians
	// only for the anchors the range [lo, hi) touches.
	segOf := func(i int) int {
		if i <= 0 {
			return 0
		}
		return min((i-1)/stride, nAnchors-1)
	}
	aFrom := segOf(lo)
	aTo := segOf(hi-1) + 1
	if aTo > nAnchors-1 {
		aTo = nAnchors - 1
	}
	// The view every needed anchor window lies in.
	vLo := max(anchorAt(aFrom)-half, 0)
	vHi := min(anchorAt(aTo)+half+1, n)
	view := x[vLo:vHi]
	if err := checkFinite(view, vLo); err != nil {
		return nil, err
	}
	rs := rankPool.Get().(*rankScratch)
	defer rankPool.Put(rs)
	rs.rank(view)
	rs.anchors = grow(rs.anchors, aTo-aFrom+1)
	anchorVal := rs.anchors
	// Slide the counted window across the needed anchors; its content at
	// each anchor is exactly the full evaluation's centered window.
	winLo, winHi := vLo, vLo-1
	for a := aFrom; a <= aTo; a++ {
		i := anchorAt(a)
		for newHi := min(i+half, n-1); winHi < newHi; {
			winHi++
			rs.add(winHi-vLo, 1)
		}
		for newLo := max(i-half, 0); winLo < newLo; winLo++ {
			rs.add(winLo-vLo, -1)
		}
		anchorVal[a-aFrom] = rs.median(winHi - winLo + 1)
	}
	out := grow(dst, hi-lo)
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
	return out, nil
}

// ErrNonFinite reports a NaN or ±Inf sample in the input of a median or
// Hampel filter: an ordered window cannot hold NaN, and a median beside
// ±Inf has no finite deviation to threshold against.
var ErrNonFinite = errors.New("dsp: non-finite sample")

// checkFinite returns ErrNonFinite, with the signal index (offset by
// start), for the first NaN or ±Inf in x.
func checkFinite(x []float64, start int) error {
	for i, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%w %v at index %d", ErrNonFinite, v, start+i)
		}
	}
	return nil
}

// rankScratch is the pooled state of RunningMedianStridedRange, sized to
// the ranked view: the view's ranks, its values in rank order, a Fenwick
// tree of per-rank counts for the current window, and the sorts' key,
// order and digit-histogram buffers.
type rankScratch struct {
	ranks   []int32   // ranks[j]: rank of view sample j
	sorted  []float64 // sorted[r]: value of rank r
	tree    []int32   // Fenwick tree over ranks, 1-based
	top     int       // highest power of two <= len(tree)-1
	anchors []float64 // anchor medians of one call

	keys, keysTmp   []uint64
	order, orderTmp []int32
	hist            [radixPasses][1 << radixBits]int32
}

// The radix sort takes radixBits of the key per pass.
const (
	radixBits   = 11
	radixMask   = 1<<radixBits - 1
	radixPasses = (64 + radixBits - 1) / radixBits
)

var rankPool = sync.Pool{New: func() any { return new(rankScratch) }}

// sortKey maps a float64 to a uint64 whose unsigned order is the float
// order (-0 sorts just below +0).
func sortKey(v float64) uint64 {
	b := math.Float64bits(v)
	if b>>63 != 0 {
		return ^b
	}
	return b | 1<<63
}

// rank ranks view — equal values by position, so the ranking is a pure
// function of the view — and resets the Fenwick tree to an empty window.
func (rs *rankScratch) rank(view []float64) {
	v := len(view)
	var order []int32
	if v < radixMinView {
		order = rs.sortPacked(view)
	} else {
		order = rs.sortRadix(view)
	}
	rs.ranks = grow(rs.ranks, v)
	rs.sorted = grow(rs.sorted, v)
	for r, j := range order {
		rs.ranks[j] = int32(r)
		rs.sorted[r] = view[j]
	}
	rs.tree = grow(rs.tree, v+1)
	clear(rs.tree)
	rs.top = 1 << (bits.Len(uint(v)) - 1)
}

// radixMinView is the view length from which rank uses the radix sort:
// below it, clearing and scanning the digit histograms costs more than
// comparison-sorting the samples (a 240-sample view ranks about 3× faster
// by pdqsort; a 4000-sample one about 1.5× faster by radix).
const radixMinView = 2048

// sortPacked returns the positions of a short view in (sortKey, position)
// order. It sorts the keys with each position packed into their low bits
// — unique values, so the unstable pdqsort is deterministic — and then
// re-sorts by full key the rare runs whose keys agree above those bits.
func (rs *rankScratch) sortPacked(view []float64) []int32 {
	v := len(view)
	low := uint64(1)<<bits.Len(uint(v-1)) - 1
	rs.keys = grow(rs.keys, v)
	keys := rs.keys
	for j, x := range view {
		keys[j] = sortKey(x)&^low | uint64(j)
	}
	slices.Sort(keys)
	rs.order = grow(rs.order, v)
	order := rs.order
	for r, k := range keys {
		order[r] = int32(k & low)
	}
	for a := 0; a < v; {
		b := a + 1
		for b < v && keys[b]&^low == keys[a]&^low {
			b++
		}
		// Insertion sort: a run is a tie (already in position order) or a
		// few values ulps apart.
		for r := a + 1; r < b; r++ {
			j := order[r]
			k := sortKey(view[j])
			q := r
			for ; q > a && sortKey(view[order[q-1]]) > k; q-- {
				order[q] = order[q-1]
			}
			order[q] = j
		}
		a = b
	}
	return order
}

// sortRadix returns the positions of a long view in (sortKey, position)
// order by a stable LSD radix sort over the radixBits-wide digits of
// sortKey; a pass whose digit is the same for every sample is skipped.
func (rs *rankScratch) sortRadix(view []float64) []int32 {
	v := len(view)
	rs.keys = grow(rs.keys, v)
	rs.keysTmp = grow(rs.keysTmp, v)
	rs.order = grow(rs.order, v)
	rs.orderTmp = grow(rs.orderTmp, v)
	hist := &rs.hist
	*hist = [radixPasses][1 << radixBits]int32{}
	for j, x := range view {
		k := sortKey(x)
		rs.keys[j] = k
		rs.order[j] = int32(j)
		for d := range hist {
			hist[d][(k>>(radixBits*d))&radixMask]++
		}
	}
	keys, order, keysTmp, orderTmp := rs.keys, rs.order, rs.keysTmp, rs.orderTmp
	for d := range hist {
		h := &hist[d]
		shift := radixBits * d
		if h[(keys[0]>>shift)&radixMask] == int32(v) {
			continue
		}
		var pos int32
		for b, c := range h {
			h[b] = pos
			pos += c
		}
		for j, k := range keys {
			b := (k >> shift) & radixMask
			p := h[b]
			h[b]++
			keysTmp[p] = k
			orderTmp[p] = order[j]
		}
		keys, keysTmp = keysTmp, keys
		order, orderTmp = orderTmp, order
	}
	return order
}

// add changes the window count of view sample j by d.
func (rs *rankScratch) add(j int, d int32) {
	for i := int(rs.ranks[j]) + 1; i < len(rs.tree); i += i & -i {
		rs.tree[i] += d
	}
}

// kth returns the value of the k-th smallest (0-based) sample in the
// window by Fenwick descent.
func (rs *rankScratch) kth(k int32) float64 {
	pos := 0
	for step := rs.top; step > 0; step >>= 1 {
		if next := pos + step; next < len(rs.tree) && rs.tree[next] <= k {
			pos = next
			k -= rs.tree[next]
		}
	}
	return rs.sorted[pos]
}

// median returns the median of the cnt samples in the window.
func (rs *rankScratch) median(cnt int) float64 {
	k := int32(cnt / 2)
	if cnt%2 == 1 {
		return rs.kth(k)
	}
	return (rs.kth(k-1) + rs.kth(k)) / 2
}

// medianWindow is the Hampel filter's sliding multiset: a sorted slice
// with O(w) memmove insert and remove — a few cache lines at the small
// window (51 samples) the filter runs at — and O(log w) median and MAD
// queries. It requires no allocation after construction. Inputs must be
// finite: NaN == NaN is false, so remove could never take a NaN out. The
// sign of a zero median depends on the window's history: remove drops the
// first == match, so a -0 leaving the window can take a +0 with it.
type medianWindow struct {
	sorted []float64
}

// medianWindowPool recycles filter state across calls so the Hampel-heavy
// hot paths (batch calibration, the incremental monitor) stay allocation-free
// at steady state.
var medianWindowPool = sync.Pool{New: func() any { return new(medianWindow) }}

func getMedianWindow(capacity int) *medianWindow {
	w := medianWindowPool.Get().(*medianWindow)
	if cap(w.sorted) < capacity {
		w.sorted = make([]float64, 0, capacity)
	} else {
		w.sorted = w.sorted[:0]
	}
	return w
}

func putMedianWindow(w *medianWindow) { medianWindowPool.Put(w) }

func (w *medianWindow) push(v float64) {
	i := lowerBound(w.sorted, v)
	w.sorted = append(w.sorted, 0)
	copy(w.sorted[i+1:], w.sorted[i:])
	w.sorted[i] = v
}

func (w *medianWindow) remove(v float64) {
	i := lowerBound(w.sorted, v)
	if i < len(w.sorted) && w.sorted[i] == v {
		copy(w.sorted[i:], w.sorted[i+1:])
		w.sorted = w.sorted[:len(w.sorted)-1]
	}
}

func (w *medianWindow) median() float64 {
	n := len(w.sorted)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return w.sorted[n/2]
	}
	return (w.sorted[n/2-1] + w.sorted[n/2]) / 2
}

// mad returns the median absolute deviation of the window around m. The
// deviations form two ascending runs, m−sorted[p−1−j] below m and
// sorted[p+j]−m from m upwards (p = lowerBound(sorted, m)), so their
// median is a k-th smallest of two sorted runs: O(log w), with the same
// bits as merging the runs.
func (w *medianWindow) mad(m float64) float64 {
	n := len(w.sorted)
	if n == 0 {
		return 0
	}
	p := lowerBound(w.sorted, m)
	if n%2 == 1 {
		return w.deviation(m, p, n/2)
	}
	return (w.deviation(m, p, n/2-1) + w.deviation(m, p, n/2)) / 2
}

// deviation returns the k-th smallest (0-based) of the deviations
// |sorted[i]−m|, given p = lowerBound(sorted, m). It binary-searches i,
// how many of the k+1 smallest come from the run below m: the smallest i
// whose next lower deviation m−sorted[p−1−i] exceeds the upper run's
// (k−i)-th, sorted[p+k−i]−m. The lower run's deviations are strictly
// positive, so every tie the search could break either way is between
// identical bit patterns.
func (w *medianWindow) deviation(m float64, p, k int) float64 {
	s := w.sorted
	lo, hi := max(0, k+1-(len(s)-p)), min(k+1, p)
	for lo < hi {
		i := int(uint(lo+hi) >> 1)
		if s[p+k-i]-m < m-s[p-1-i] {
			hi = i
		} else {
			lo = i + 1
		}
	}
	i := lo
	switch {
	case i == 0:
		return s[p+k] - m
	case i == k+1:
		return m - s[p-1-k]
	}
	below, above := m-s[p-i], s[p+k-i]-m
	if below > above {
		return below
	}
	return above
}

// lowerBound returns the first index i with sorted[i] >= v.
func lowerBound(sorted []float64, v float64) int {
	lo, hi := 0, len(sorted)
	for lo < hi {
		mid := (lo + hi) / 2
		if sorted[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
