package dsp

import (
	"math"
	"math/big"
	"math/cmplx"
	"math/rand"
	"testing"
)

// bigSum is the reference: at 2 300 bits a big.Float holds any sum of up
// to 2²⁰⁰ float64 values exactly (the float64 range spans 2 098 bits), so
// its Float64 is the correctly rounded exact sum.
func bigSum(xs []float64) float64 {
	acc := new(big.Float).SetPrec(2300)
	v := new(big.Float).SetPrec(2300)
	for _, x := range xs {
		acc.Add(acc, v.SetFloat64(x))
	}
	f, _ := acc.Float64()
	return f
}

func exactSumOf(xs []float64) float64 {
	var s ExactSum
	for _, x := range xs {
		s.Add(x)
	}
	return s.Float64()
}

func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a != a && b != b)
}

// fastEdge returns the float64 with biased exponent e, mantissa bits m
// and the given sign.
func fastEdge(e, m uint64, neg bool) float64 {
	b := e<<52 | m&fracMask
	if neg {
		b |= 1 << 63
	}
	return math.Float64frombits(b)
}

func exactSumCases(rng *rand.Rand) map[string][]float64 {
	cases := map[string][]float64{
		"empty":            nil,
		"signed zeros":     {math.Copysign(0, -1), 0, math.Copysign(0, -1)},
		"negative zeros":   {math.Copysign(0, -1), math.Copysign(0, -1)},
		"1e308+1-1e308":    {1e308, 1, -1e308},
		"cancel to tiny":   {1e300, 5e-324, -1e300, 1, -1},
		"overflow":         {math.MaxFloat64, math.MaxFloat64},
		"overflow undone":  {math.MaxFloat64, math.MaxFloat64, -math.MaxFloat64},
		"negative over":    {-math.MaxFloat64, -math.MaxFloat64 / 2},
		"tie to even down": {1, 0x1p-53},
		"tie to even up":   {1 + 0x1p-52, 0x1p-53},
		"tie broken":       {1, 0x1p-53, 5e-324},
		"subnormal carry":  {0x1p-1022 - 5e-324, 5e-324},
		"subnormal sum":    {5e-324, 5e-324, -1.5e-323, 3e-320},
		"min normal split": {0x1p-1022, -5e-324},
		"round to max":     {math.MaxFloat64, 0x1p970 - 0x1p917},
		"round past max":   {math.MaxFloat64, 0x1p970},
	}
	// Values at and just outside both edges of the fast range, with
	// extreme and random mantissas, of both signs.
	var edges []float64
	for _, e := range []uint64{sumFastMinExp - 1, sumFastMinExp, sumFastMinExp + sumFastMaxShift, sumFastMinExp + sumFastMaxShift + 1} {
		for _, m := range []uint64{0, fracMask, rng.Uint64()} {
			edges = append(edges, fastEdge(e, m, false), fastEdge(e, m, true))
		}
	}
	cases["fast range edges"] = edges
	cases["fast edges cancel"] = append(append([]float64{}, edges...), 0x1p-100, -edges[5], -edges[13])

	full := make([]float64, 2000)
	for i := range full {
		full[i] = math.Float64frombits(rng.Uint64()&^(0x7ff<<52) | uint64(rng.Intn(0x7ff))<<52)
	}
	cases["random full range"] = full

	csi := make([]float64, 3000)
	for i := range csi {
		switch i % 4 {
		case 0:
			csi[i] = math.Sin(rng.Float64()*2*math.Pi - math.Pi)
		case 1:
			csi[i] = math.Cos(rng.Float64()*2*math.Pi - math.Pi)
		default:
			csi[i] = cmplx.Abs(complex(rng.NormFloat64()*40, rng.NormFloat64()*40))
		}
	}
	cases["random csi"] = csi

	// Many large terms that cancel pairwise around a small residue.
	cancel := make([]float64, 0, 1001)
	for i := 0; i < 500; i++ {
		x := math.Ldexp(rng.Float64(), rng.Intn(200)-100)
		cancel = append(cancel, x, -x)
	}
	cancel = append(cancel, 0x1p-300)
	rng.Shuffle(len(cancel), func(i, j int) { cancel[i], cancel[j] = cancel[j], cancel[i] })
	cases["pairwise cancel"] = cancel
	return cases
}

// TestExactSumMatchesBigFloat checks correct rounding against an exact
// big.Float reference on random and adversarial inputs.
func TestExactSumMatchesBigFloat(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for name, xs := range exactSumCases(rng) {
		if got, want := exactSumOf(xs), bigSum(xs); !sameFloat(got, want) {
			t.Errorf("%s: ExactSum = %v (%#x), big.Float = %v (%#x)",
				name, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	if got := exactSumOf([]float64{1e308, 1, -1e308}); got != 1 {
		t.Errorf("1e308 + 1 - 1e308 = %v, want 1", got)
	}
}

// TestExactSumRandomTrials compares many random short sums with the
// reference, drawing exponents from the whole range and from around the
// fast path's edges.
func TestExactSumRandomTrials(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	exps := []func() uint64{
		func() uint64 { return uint64(rng.Intn(0x7ff)) },
		func() uint64 { return uint64(sumFastMinExp - 3 + rng.Intn(sumFastMaxShift+7)) },
		func() uint64 { return uint64(rng.Intn(4)) },
		func() uint64 { return uint64(0x7fe - rng.Intn(4)) },
	}
	for trial := 0; trial < 2000; trial++ {
		xs := make([]float64, 1+rng.Intn(40))
		pick := exps[trial%len(exps)]
		for i := range xs {
			xs[i] = fastEdge(pick(), rng.Uint64(), rng.Intn(2) == 0)
		}
		if got, want := exactSumOf(xs), bigSum(xs); !sameFloat(got, want) {
			t.Fatalf("trial %d: ExactSum(%v) = %v, big.Float = %v", trial, xs, got, want)
		}
	}
}

// TestExactSumNonFinite: non-finite inputs give what a naive loop gives.
func TestExactSumNonFinite(t *testing.T) {
	huge := cmplx.Abs(complex(1.5e308, 1.5e308)) // finite CSI cell, +Inf amplitude
	if !math.IsInf(huge, 1) {
		t.Fatalf("fixture: |1.5e308+1.5e308i| = %v, want +Inf", huge)
	}
	cases := []struct {
		name string
		xs   []float64
		want float64
	}{
		{"amplitude overflow", []float64{3, huge, 4}, math.Inf(1)},
		{"-Inf", []float64{-1e308, math.Inf(-1), 1e308}, math.Inf(-1)},
		{"Inf-Inf", []float64{math.Inf(1), 1, math.Inf(-1)}, math.NaN()},
		{"NaN", []float64{1, math.NaN()}, math.NaN()},
	}
	for _, tc := range cases {
		var naive float64
		for _, x := range tc.xs {
			naive += x
		}
		if got := exactSumOf(tc.xs); !sameFloat(got, tc.want) || !sameFloat(got, naive) {
			t.Errorf("%s: ExactSum = %v, naive = %v, want %v", tc.name, got, naive, tc.want)
		}
	}
}

// TestExactSumOrderAndMerge: shuffled input gives identical bits, and
// merging split parts equals adding the values in sequence.
func TestExactSumOrderAndMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for name, xs := range exactSumCases(rng) {
		want := exactSumOf(xs)
		shuffled := append([]float64(nil), xs...)
		for k := 0; k < 5; k++ {
			rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
			if got := exactSumOf(shuffled); !sameFloat(got, want) {
				t.Fatalf("%s: shuffled sum %v, sequential %v", name, got, want)
			}
		}
		for _, cut := range []int{0, len(xs) / 3, len(xs) / 2, len(xs)} {
			var a, b ExactSum
			for _, x := range xs[:cut] {
				a.Add(x)
			}
			for _, x := range xs[cut:] {
				b.Add(x)
			}
			a.Merge(&b)
			if got := a.Float64(); !sameFloat(got, want) {
				t.Fatalf("%s: merge at %d = %v, sequential %v", name, cut, got, want)
			}
		}
		// Many small blocks, merged in reverse.
		blocks := make([]ExactSum, 7)
		for i, x := range xs {
			blocks[i%len(blocks)].Add(x)
		}
		var all ExactSum
		for i := len(blocks) - 1; i >= 0; i-- {
			all.Merge(&blocks[i])
		}
		if got := all.Float64(); !sameFloat(got, want) {
			t.Fatalf("%s: block merge = %v, sequential %v", name, got, want)
		}
	}
}

// TestExactSumZeroAllocs: the per-packet and per-stride operations
// allocate nothing.
func TestExactSumZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race shadow state allocates")
	}
	var s, o ExactSum
	o.Add(3)
	xs := []float64{0.25, -1e-30, 7e300, 5e-324, 0, 12.5}
	calls := map[string]func(){
		"Add": func() {
			for _, x := range xs {
				s.Add(x)
			}
		},
		"Merge":   func() { s.Merge(&o) },
		"Float64": func() { _ = s.Float64() },
	}
	for name, f := range calls {
		if n := testing.AllocsPerRun(100, f); n != 0 {
			t.Errorf("%s: %v allocs/op, want 0", name, n)
		}
	}
}

// BenchmarkExactSum measures one packet's worth of stream ingest (30
// subcarriers × sin, cos and two amplitudes into their own sums), one
// stride's block merge, and one read.
func BenchmarkExactSum(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const subcarriers = 30
	vals := make([]float64, 4*subcarriers)
	for s := 0; s < subcarriers; s++ {
		vals[4*s], vals[4*s+1] = math.Sincos(rng.Float64()*2*math.Pi - math.Pi)
		vals[4*s+2] = cmplx.Abs(complex(rng.NormFloat64()*40, rng.NormFloat64()*40))
		vals[4*s+3] = cmplx.Abs(complex(rng.NormFloat64()*40, rng.NormFloat64()*40))
	}
	sums := make([]ExactSum, len(vals))
	b.Run("add-packet", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for k, v := range vals {
				sums[k].Add(v)
			}
		}
	})
	b.Run("merge", func(b *testing.B) {
		var acc ExactSum
		for i := 0; i < b.N; i++ {
			acc.Merge(&sums[i%len(sums)])
		}
	})
	b.Run("float64", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			exactSumSink = sums[i%len(sums)].Float64()
		}
	})
}

var exactSumSink float64
