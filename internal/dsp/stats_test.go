package dsp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBasicStats(t *testing.T) {
	x := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(x); got != 5 {
		t.Errorf("Mean = %v, want 5", got)
	}
	if got := Variance(x); got != 4 {
		t.Errorf("Variance = %v, want 4", got)
	}
	if got := StdDev(x); got != 2 {
		t.Errorf("StdDev = %v, want 2", got)
	}
	if got := Median(x); got != 4.5 {
		t.Errorf("Median = %v, want 4.5", got)
	}
}

func TestStatsEmpty(t *testing.T) {
	if Mean(nil) != 0 || Median(nil) != 0 || Variance(nil) != 0 || MeanAbsDev(nil) != 0 {
		t.Error("empty-slice statistics should be zero")
	}
	if Percentile(nil, 50) != 0 {
		t.Error("Percentile(nil) should be 0")
	}
	if RMS(nil) != 0 {
		t.Error("RMS(nil) should be 0")
	}
}

func TestMeanAbsDev(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5} // mean 3, deviations 2 1 0 1 2
	if got := MeanAbsDev(x); math.Abs(got-1.2) > 1e-12 {
		t.Errorf("MeanAbsDev = %v, want 1.2", got)
	}
}

func TestPercentile(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	cases := []struct{ p, want float64 }{
		{0, 1}, {50, 3}, {100, 5}, {25, 2}, {90, 4.6},
	}
	for _, c := range cases {
		if got := Percentile(x, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestMinMax(t *testing.T) {
	x := []float64{3, -1, 7, 2}
	mn, mx := MinMax(x)
	if mn != -1 || mx != 7 {
		t.Errorf("MinMax = (%v, %v), want (-1, 7)", mn, mx)
	}
}

func TestAutocorrelationPeriodicity(t *testing.T) {
	// Periodic signal has autocorrelation peak at its period.
	period := 25
	x := make([]float64, 500)
	for i := range x {
		x[i] = math.Sin(2 * math.Pi * float64(i) / float64(period))
	}
	ac := Autocorrelation(x, 100)
	if math.Abs(ac[0]-1) > 1e-12 {
		t.Errorf("ac[0] = %v, want 1", ac[0])
	}
	// The lag with the highest correlation beyond lag 5 should be ~period.
	best, bestVal := 0, -2.0
	for lag := 5; lag <= 100; lag++ {
		if ac[lag] > bestVal {
			best, bestVal = lag, ac[lag]
		}
	}
	if best < period-1 || best > period+1 {
		t.Errorf("autocorrelation peak at lag %d, want ~%d", best, period)
	}
}

func TestAutocorrelationConstantSignal(t *testing.T) {
	ac := Autocorrelation([]float64{5, 5, 5, 5}, 2)
	for lag, v := range ac {
		if v != 0 {
			t.Errorf("ac[%d] = %v, want 0 for zero-variance input", lag, v)
		}
	}
}

// Property: Percentile is monotone in p and bounded by min/max.
func TestPercentileMonotoneProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(50)
		x := make([]float64, n)
		for i := range x {
			x[i] = r.NormFloat64()
		}
		mn, mx := MinMax(x)
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 10 {
			v := Percentile(x, p)
			if v < prev-1e-12 || v < mn-1e-12 || v > mx+1e-12 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: rng}); err != nil {
		t.Error(err)
	}
}

func TestCircularConcentratedVsUniform(t *testing.T) {
	// Concentrated angles → R near 1; uniform angles → R near 0.
	concentrated := make([]float64, 600)
	rng := rand.New(rand.NewSource(4))
	for i := range concentrated {
		concentrated[i] = 3.45 + rng.NormFloat64()*0.05
	}
	cs := Circular(concentrated)
	if cs.R < 0.95 {
		t.Errorf("concentrated R = %v, want > 0.95", cs.R)
	}
	// The sine and cosine sums are exact: the order of the angles does
	// not reach the last bit.
	shuffled := append([]float64(nil), concentrated...)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	if got := Circular(shuffled); got != cs {
		t.Errorf("shuffled angles: %+v, in order %+v", got, cs)
	}
	uniform := make([]float64, 600)
	for i := range uniform {
		uniform[i] = rng.Float64()*2*math.Pi - math.Pi
	}
	us := Circular(uniform)
	if us.R > 0.2 {
		t.Errorf("uniform R = %v, want < 0.2", us.R)
	}
	if SectorWidth(concentrated, 0.95) > SectorWidth(uniform, 0.95) {
		t.Error("concentrated sector should be narrower than uniform sector")
	}
}

// Property: circular statistics are invariant under rotation (R unchanged,
// mean rotates by the same amount).
func TestCircularRotationInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(100)
		rot := r.Float64()*2*math.Pi - math.Pi
		a := make([]float64, n)
		b := make([]float64, n)
		for i := range a {
			a[i] = r.NormFloat64() * 0.3
			b[i] = a[i] + rot
		}
		sa, sb := Circular(a), Circular(b)
		if math.Abs(sa.R-sb.R) > 1e-9 {
			return false
		}
		diff := WrapPhase(sb.Mean - sa.Mean - rot)
		return math.Abs(diff) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: rng}); err != nil {
		t.Error(err)
	}
}

func TestCircularEmpty(t *testing.T) {
	cs := Circular(nil)
	if cs.Variance != 1 || !math.IsInf(cs.StdDev, 1) {
		t.Errorf("Circular(nil) = %+v", cs)
	}
}
