package linalg

import (
	"errors"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSolveKnownSystem(t *testing.T) {
	a := matrixFrom(2, 2, []float64{2, 1, 1, 3})
	b := matrixFrom(2, 1, []float64{5, 10})
	x, err := Solve(a, b)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	// 2x+y=5, x+3y=10 → x=1, y=3.
	if math.Abs(x.At(0, 0)-1) > 1e-12 || math.Abs(x.At(1, 0)-3) > 1e-12 {
		t.Errorf("solution = %v", x)
	}
}

func TestSolveSingular(t *testing.T) {
	a := matrixFrom(2, 2, []float64{1, 2, 2, 4})
	b := NewMatrix(2, 1)
	if _, err := Solve(a, b); !errors.Is(err, ErrSingular) {
		t.Errorf("want ErrSingular, got %v", err)
	}
}

func TestSolveDimensionErrors(t *testing.T) {
	if _, err := NewLU(NewMatrix(2, 3)); !errors.Is(err, ErrDimensionMismatch) {
		t.Errorf("want dimension error, got %v", err)
	}
	a := Identity(3)
	lu, err := NewLU(a)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lu.SolveVec([]float64{1, 2}); !errors.Is(err, ErrDimensionMismatch) {
		t.Errorf("want dimension error, got %v", err)
	}
	if _, err := lu.Solve(NewMatrix(2, 2)); !errors.Is(err, ErrDimensionMismatch) {
		t.Errorf("want dimension error, got %v", err)
	}
}

// Property: A·Solve(A, B) == B for random well-conditioned systems.
func TestSolveResidualProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(8)
		a := randomMatrix(r, n, n)
		// Diagonal dominance keeps the system well-conditioned.
		for i := 0; i < n; i++ {
			a.Set(i, i, a.At(i, i)+float64(n)+1)
		}
		b := randomMatrix(r, n, 1+r.Intn(3))
		x, err := Solve(a, b)
		if err != nil {
			return false
		}
		ax, err := a.Mul(x)
		if err != nil {
			return false
		}
		return matricesClose(ax, b, 1e-8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: rng}); err != nil {
		t.Error(err)
	}
}

func TestCharPolyKnown(t *testing.T) {
	// [[2,1],[1,2]]: λ² − 4λ + 3.
	a := matrixFrom(2, 2, []float64{2, 1, 1, 2})
	coeffs, err := CharPoly(a)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{3, -4, 1}
	for i, w := range want {
		if math.Abs(coeffs[i]-w) > 1e-12 {
			t.Errorf("coeff[%d] = %v, want %v", i, coeffs[i], w)
		}
	}
	if _, err := CharPoly(NewMatrix(2, 3)); err == nil {
		t.Error("want error for rectangular matrix")
	}
}

// Property: eigenvalues from CharPoly match EigSym for random symmetric
// matrices.
func TestEigenvaluesMatchEigSym(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(5)
		a := randomSymmetric(rng, n)
		sym, err := EigSym(a)
		if err != nil {
			t.Fatal(err)
		}
		gen, err := Eigenvalues(a)
		if err != nil {
			t.Fatal(err)
		}
		// Collect real parts (symmetric → eigenvalues real) and compare
		// as multisets.
		got := make([]float64, len(gen))
		for i, z := range gen {
			if math.Abs(imag(z)) > 1e-6 {
				t.Fatalf("complex eigenvalue %v for symmetric matrix", z)
			}
			got[i] = real(z)
		}
		if !multisetClose(got, sym.Values, 1e-6) {
			t.Errorf("eigenvalues differ: %v vs %v", got, sym.Values)
		}
	}
}

// Eigenvalues of a rotation matrix are e^{±jθ}.
func TestEigenvaluesRotation(t *testing.T) {
	theta := 0.7
	a := matrixFrom(2, 2, []float64{
		math.Cos(theta), -math.Sin(theta),
		math.Sin(theta), math.Cos(theta),
	})
	vals, err := Eigenvalues(a)
	if err != nil {
		t.Fatal(err)
	}
	for _, z := range vals {
		if math.Abs(cmplx.Abs(z)-1) > 1e-9 {
			t.Errorf("eigenvalue %v not on unit circle", z)
		}
		if math.Abs(math.Abs(cmplx.Phase(z))-theta) > 1e-9 {
			t.Errorf("eigenvalue angle %v, want ±%v", cmplx.Phase(z), theta)
		}
	}
}

func multisetClose(a, b []float64, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	used := make([]bool, len(b))
	for _, av := range a {
		found := false
		for i, bv := range b {
			if !used[i] && math.Abs(av-bv) < tol*(1+math.Abs(bv)) {
				used[i] = true
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}
