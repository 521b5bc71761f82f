package dsp

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestHampelRemovesSpike(t *testing.T) {
	x := make([]float64, 101)
	for i := range x {
		x[i] = math.Sin(float64(i) / 10)
	}
	x[50] += 25 // gross outlier
	out, err := Hampel(x, 11, 3)
	if err != nil {
		t.Fatalf("Hampel: %v", err)
	}
	if math.Abs(out[50]-math.Sin(5)) > 0.5 {
		t.Errorf("spike not removed: out[50] = %v", out[50])
	}
	// Non-outlier samples pass through unchanged.
	if out[10] != x[10] {
		t.Errorf("clean sample modified: %v != %v", out[10], x[10])
	}
}

func TestHampelKeepsCleanSignal(t *testing.T) {
	x := make([]float64, 200)
	for i := range x {
		x[i] = math.Sin(2 * math.Pi * float64(i) / 40)
	}
	out, err := Hampel(x, 9, 5)
	if err != nil {
		t.Fatalf("Hampel: %v", err)
	}
	changed := 0
	for i := range x {
		if out[i] != x[i] {
			changed++
		}
	}
	if changed > len(x)/10 {
		t.Errorf("Hampel modified %d/%d clean samples", changed, len(x))
	}
}

func TestHampelInvalidWindow(t *testing.T) {
	if _, err := Hampel([]float64{1}, 0, 3); err == nil {
		t.Error("want error for zero window")
	}
}

func TestHampelEmpty(t *testing.T) {
	out, err := Hampel(nil, 5, 3)
	if err != nil || out != nil {
		t.Errorf("Hampel(nil) = %v, %v", out, err)
	}
}

func TestHampelTrendIsRunningMedian(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x := make([]float64, 120)
	for i := range x {
		x[i] = rng.NormFloat64() + float64(i)*0.05
	}
	window := 15
	// A zero threshold replaces every sample with its window median.
	trend, err := Hampel(x, window, 0)
	if err != nil {
		t.Fatalf("Hampel: %v", err)
	}
	// Compare against a brute-force centered median.
	half := window / 2
	for i := range x {
		lo := i - half
		if lo < 0 {
			lo = 0
		}
		hi := i + half
		if hi >= len(x) {
			hi = len(x) - 1
		}
		want := bruteMedian(x[lo : hi+1])
		if math.Abs(trend[i]-want) > 1e-12 {
			t.Fatalf("trend[%d] = %v, want %v", i, trend[i], want)
		}
	}
}

func bruteMedian(x []float64) float64 {
	tmp := make([]float64, len(x))
	copy(tmp, x)
	sort.Float64s(tmp)
	n := len(tmp)
	if n%2 == 1 {
		return tmp[n/2]
	}
	return (tmp[n/2-1] + tmp[n/2]) / 2
}

// Property: Hampel output samples always lie within the min/max of the
// input window around them (it only passes values through or replaces them
// with a window median).
func TestHampelBoundsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(200)
		window := 1 + r.Intn(30)
		x := make([]float64, n)
		for i := range x {
			x[i] = r.NormFloat64() * 10
		}
		out, err := Hampel(x, window, r.Float64()*4)
		if err != nil {
			return false
		}
		half := window / 2
		for i := range out {
			lo := i - half
			if lo < 0 {
				lo = 0
			}
			hi := i + half
			if hi >= n {
				hi = n - 1
			}
			mn, mx := MinMax(x[lo : hi+1])
			if out[i] < mn-1e-12 || out[i] > mx+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: rng}); err != nil {
		t.Error(err)
	}
}

// Property: with a huge threshold Hampel is the identity.
func TestHampelIdentityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(100)
		x := make([]float64, n)
		for i := range x {
			x[i] = r.NormFloat64()
		}
		out, err := Hampel(x, 9, 1e9)
		if err != nil {
			return false
		}
		for i := range x {
			if out[i] != x[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: rng}); err != nil {
		t.Error(err)
	}
}

func TestMedianWindowMAD(t *testing.T) {
	w := getMedianWindow(8)
	defer putMedianWindow(w)
	for _, v := range []float64{1, 2, 3, 4, 100} {
		w.push(v)
	}
	m := w.median()
	if m != 3 {
		t.Fatalf("median = %v, want 3", m)
	}
	// Deviations from 3: [2 1 0 1 97] → sorted [0 1 1 2 97] → median 1.
	if got := w.mad(m); got != 1 {
		t.Errorf("mad = %v, want 1", got)
	}
	w.remove(100)
	if got := w.median(); got != 2.5 {
		t.Errorf("median after remove = %v, want 2.5", got)
	}
}

// TestNonFiniteInputIsAnError: a NaN can never leave the sorted window
// (NaN == NaN is false), so before the entry points rejected it every later
// sample came back silently wrong with a nil error. Every Hampel and
// running-median entry point now reports ErrNonFinite for NaN and ±Inf in
// the samples it reads, and accepts non-finite samples it does not read.
func TestNonFiniteInputIsAnError(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		x := make([]float64, 200)
		for i := range x {
			x[i] = math.Sin(float64(i) / 7)
		}
		x[60] = bad
		calls := map[string]func() error{
			"Hampel": func() error { _, err := Hampel(x, 11, 3); return err },
			"HampelInto": func() error {
				_, err := HampelInto(make([]float64, 0, len(x)), x, 11, 3)
				return err
			},
			"HampelRange": func() error {
				_, err := HampelRange(nil, x[40:100], 40, len(x), 11, 3, 50, 90)
				return err
			},
			"RunningMedianStridedRange": func() error {
				_, err := RunningMedianStridedRange(nil, x, 11, 4, 50, 90)
				return err
			},
		}
		for name, call := range calls {
			if err := call(); !errors.Is(err, ErrNonFinite) {
				t.Errorf("%s with a %v sample: err = %v, want ErrNonFinite", name, bad, err)
			}
		}
		// Samples outside every window the range reads do not matter.
		if _, err := HampelRange(nil, x[100:200], 100, len(x), 11, 3, 110, 190); err != nil {
			t.Errorf("HampelRange away from the %v sample: %v", bad, err)
		}
		if _, err := RunningMedianStridedRange(nil, x, 11, 4, 120, 190); err != nil {
			t.Errorf("RunningMedianStridedRange away from the %v sample: %v", bad, err)
		}
	}
}

// TestWarmKernelsZeroAllocs: once their pooled scratch is warm, the
// Hampel smoother and the strided trend median allocate nothing when dst
// has capacity — the rank and Fenwick scratch is pooled, never per call.
func TestWarmKernelsZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	x := paperSignal()
	dst := make([]float64, 0, len(x))
	calls := map[string]func(){
		"HampelInto": func() {
			if _, err := HampelInto(dst, x, paperSmoothWindow, 0.01); err != nil {
				t.Fatal(err)
			}
		},
		"RunningMedianStridedRange": func() {
			if _, err := RunningMedianStridedRange(dst, x, paperTrendWindow, paperTrendStride, 0, len(x)); err != nil {
				t.Fatal(err)
			}
		},
		"RunningMedianStridedRange/short-view": func() {
			if _, err := RunningMedianStridedRange(dst, x[:240], 150, paperTrendStride, 0, 240); err != nil {
				t.Fatal(err)
			}
		},
	}
	for name, call := range calls {
		call()
		if allocs := testing.AllocsPerRun(5, call); allocs != 0 {
			t.Errorf("warm %s allocates %.1f times per call, want 0", name, allocs)
		}
	}
}

func BenchmarkHampelLargeWindow(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	x := make([]float64, 10000)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Hampel(x, 2000, 0.01); err != nil {
			b.Fatal(err)
		}
	}
}

// The paper's operating point as the streaming engine sees it: a 60 s
// window at 400 Hz, the Hampel(2000) trend evaluated every 10 samples,
// the Hampel(50, 0.01) smoother, and a 5 s slide.
const (
	paperN            = 24000
	paperTrendWindow  = 2000
	paperTrendStride  = 10
	paperSmoothWindow = 50
	paperSlide        = 2000
)

// paperSignal is one subcarrier's unwrapped phase over the window:
// breathing and heartbeat tones on a slow drift, plus noise.
func paperSignal() []float64 {
	rng := rand.New(rand.NewSource(1))
	x := make([]float64, paperN)
	for i := range x {
		t := float64(i) / 400
		x[i] = 0.002*t + 0.3*math.Sin(2*math.Pi*0.25*t) + 0.03*math.Sin(2*math.Pi*1.2*t) + 0.05*rng.NormFloat64()
	}
	return x
}

// paperStrideRanges are the two output ranges the streaming engine
// smooths per stride: the head margin and the new tail plus its margin.
func paperStrideRanges() [2][2]int {
	m := paperTrendWindow/2 + paperTrendStride + paperSmoothWindow/2 + 4
	return [2][2]int{{0, m}, {paperN - paperSlide - m, paperN}}
}

// benchWarm times call b.N times after one untimed call, which refills
// the filter-state pools that the runtime.GC before each benchmark round
// empties: the timed loop is the warm, allocation-free steady state.
func benchWarm(b *testing.B, call func() error) {
	b.ReportAllocs()
	if err := call(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := call(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunningMedianStrided measures the trend median over a full
// window (the batch path) and over one stride's two ranges, each widened
// by the smoother's half-window as the detrend needs.
func BenchmarkRunningMedianStrided(b *testing.B) {
	x := paperSignal()
	dst := make([]float64, 0, paperN)
	b.Run("full", func(b *testing.B) {
		benchWarm(b, func() error {
			_, err := RunningMedianStridedRange(dst, x, paperTrendWindow, paperTrendStride, 0, paperN)
			return err
		})
	})
	b.Run("stride-range", func(b *testing.B) {
		sh := paperSmoothWindow / 2
		benchWarm(b, func() error {
			for _, r := range paperStrideRanges() {
				if _, err := RunningMedianStridedRange(dst, x, paperTrendWindow, paperTrendStride, max(r[0]-sh, 0), min(r[1]+sh, paperN)); err != nil {
					return err
				}
			}
			return nil
		})
	})
}

// BenchmarkHampel measures the Hampel(50) smoother over a full window
// (warm HampelInto) and over one stride's two ranges.
func BenchmarkHampel(b *testing.B) {
	x := paperSignal()
	dst := make([]float64, 0, paperN)
	b.Run("full", func(b *testing.B) {
		benchWarm(b, func() error {
			_, err := HampelInto(dst, x, paperSmoothWindow, 0.01)
			return err
		})
	})
	b.Run("stride-range", func(b *testing.B) {
		sh := paperSmoothWindow / 2
		benchWarm(b, func() error {
			for _, r := range paperStrideRanges() {
				vlo, vhi := max(r[0]-sh, 0), min(r[1]+sh, paperN)
				if _, err := HampelRange(dst, x[vlo:vhi], vlo, paperN, paperSmoothWindow, 0.01, r[0], r[1]); err != nil {
					return err
				}
			}
			return nil
		})
	})
}
