package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEigSymDiagonal(t *testing.T) {
	a := matrixFrom(3, 3, []float64{
		3, 0, 0,
		0, 1, 0,
		0, 0, 2,
	})
	e, err := EigSym(a)
	if err != nil {
		t.Fatalf("EigSym: %v", err)
	}
	want := []float64{3, 2, 1}
	for i, w := range want {
		if math.Abs(e.Values[i]-w) > 1e-12 {
			t.Errorf("value[%d] = %v, want %v", i, e.Values[i], w)
		}
	}
}

func TestEigSymKnown2x2(t *testing.T) {
	// [[2,1],[1,2]] has eigenvalues 3 and 1.
	a := matrixFrom(2, 2, []float64{2, 1, 1, 2})
	e, err := EigSym(a)
	if err != nil {
		t.Fatalf("EigSym: %v", err)
	}
	if math.Abs(e.Values[0]-3) > 1e-12 || math.Abs(e.Values[1]-1) > 1e-12 {
		t.Errorf("values = %v, want [3 1]", e.Values)
	}
	// Eigenvector for λ=3 is ±[1,1]/√2.
	v := e.Vectors.Col(0)
	if math.Abs(math.Abs(v[0])-math.Sqrt2/2) > 1e-10 || math.Abs(v[0]-v[1]) > 1e-10 {
		t.Errorf("eigenvector for 3 = %v", v)
	}
}

func TestEigSymRejectsAsymmetric(t *testing.T) {
	a := matrixFrom(2, 2, []float64{1, 5, 0, 1})
	if _, err := EigSym(a); err == nil {
		t.Error("want error for asymmetric matrix")
	}
	r := NewMatrix(2, 3)
	if _, err := EigSym(r); err == nil {
		t.Error("want error for rectangular matrix")
	}
}

// Property: A·v_i = λ_i·v_i, eigenvectors orthonormal, eigenvalues sorted.
func TestEigSymProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(10)
		a := randomSymmetric(r, n)
		e, err := EigSym(a)
		if err != nil {
			return false
		}
		// Sorted descending.
		for i := 1; i < n; i++ {
			if e.Values[i] > e.Values[i-1]+1e-9 {
				return false
			}
		}
		// Residual ‖Av - λv‖ small; eigenvector columns orthonormal.
		scale := 1 + a.FrobeniusNorm()
		for i := 0; i < n; i++ {
			v := e.Vectors.Col(i)
			av, err := a.MulVec(v)
			if err != nil {
				return false
			}
			for k := range av {
				if math.Abs(av[k]-e.Values[i]*v[k]) > 1e-8*scale {
					return false
				}
			}
			for j := 0; j < n; j++ {
				dot := Dot(v, e.Vectors.Col(j))
				want := 0.0
				if i == j {
					want = 1
				}
				if math.Abs(dot-want) > 1e-8 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30, Rand: rng}); err != nil {
		t.Error(err)
	}
}

// Property: sum of eigenvalues equals the trace.
func TestEigSymTraceInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(8)
		a := randomSymmetric(rng, n)
		e, err := EigSym(a)
		if err != nil {
			t.Fatalf("EigSym: %v", err)
		}
		var sum float64
		for _, v := range e.Values {
			sum += v
		}
		tr, _ := a.Trace()
		if math.Abs(sum-tr) > 1e-8*(1+math.Abs(tr)) {
			t.Errorf("n=%d: eigenvalue sum %v != trace %v", n, sum, tr)
		}
	}
}

func BenchmarkEigSym30(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	a := randomSymmetric(rng, 30)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EigSym(a); err != nil {
			b.Fatal(err)
		}
	}
}
