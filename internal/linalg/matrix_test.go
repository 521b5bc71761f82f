package linalg

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// matrixFrom builds a rows×cols test matrix from row-major data.
func matrixFrom(rows, cols int, data []float64) *Matrix {
	if len(data) != rows*cols {
		panic("matrixFrom: data length does not match the shape")
	}
	m := NewMatrix(rows, cols)
	copy(m.data, data)
	return m
}

func TestMatrixMul(t *testing.T) {
	a := matrixFrom(2, 3, []float64{1, 2, 3, 4, 5, 6})
	b := matrixFrom(3, 2, []float64{7, 8, 9, 10, 11, 12})
	c, err := a.Mul(b)
	if err != nil {
		t.Fatalf("Mul: %v", err)
	}
	want := [][]float64{{58, 64}, {139, 154}}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if got := c.At(i, j); got != want[i][j] {
				t.Errorf("c[%d][%d] = %v, want %v", i, j, got, want[i][j])
			}
		}
	}
}

func TestMatrixMulDimensionMismatch(t *testing.T) {
	a := NewMatrix(2, 3)
	b := NewMatrix(2, 3)
	if _, err := a.Mul(b); !errors.Is(err, ErrDimensionMismatch) {
		t.Errorf("want ErrDimensionMismatch, got %v", err)
	}
}

func TestMatrixTranspose(t *testing.T) {
	a := matrixFrom(2, 3, []float64{1, 2, 3, 4, 5, 6})
	at := a.Transpose()
	if at.Rows() != 3 || at.Cols() != 2 {
		t.Fatalf("transpose shape = %dx%d, want 3x2", at.Rows(), at.Cols())
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			if a.At(i, j) != at.At(j, i) {
				t.Errorf("transpose mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestMulVec(t *testing.T) {
	a := matrixFrom(2, 3, []float64{1, 0, -1, 2, 1, 0})
	got, err := a.MulVec([]float64{3, 4, 5})
	if err != nil {
		t.Fatalf("MulVec: %v", err)
	}
	want := []float64{-2, 10}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("MulVec[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestOuterAccumulate(t *testing.T) {
	m := NewMatrix(2, 2)
	if err := m.OuterAccumulate([]float64{1, 2}, 2); err != nil {
		t.Fatalf("OuterAccumulate: %v", err)
	}
	want := [][]float64{{2, 4}, {4, 8}}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if m.At(i, j) != want[i][j] {
				t.Errorf("m[%d][%d] = %v, want %v", i, j, m.At(i, j), want[i][j])
			}
		}
	}
}

func TestIdentityTrace(t *testing.T) {
	id := Identity(5)
	tr, err := id.Trace()
	if err != nil {
		t.Fatalf("Trace: %v", err)
	}
	if tr != 5 {
		t.Errorf("trace(I5) = %v, want 5", tr)
	}
}

func TestIsSymmetric(t *testing.T) {
	sym := matrixFrom(2, 2, []float64{1, 2, 2, 3})
	if !sym.IsSymmetric(0) {
		t.Error("symmetric matrix reported as asymmetric")
	}
	asym := matrixFrom(2, 2, []float64{1, 2, 2.5, 3})
	if asym.IsSymmetric(1e-9) {
		t.Error("asymmetric matrix reported as symmetric")
	}
	rect := NewMatrix(2, 3)
	if rect.IsSymmetric(1) {
		t.Error("rectangular matrix reported as symmetric")
	}
}

// Property: (AB)ᵀ == BᵀAᵀ for random matrices.
func TestTransposeProductProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n, m, p := 1+r.Intn(6), 1+r.Intn(6), 1+r.Intn(6)
		a := randomMatrix(r, n, m)
		b := randomMatrix(r, m, p)
		ab, err := a.Mul(b)
		if err != nil {
			return false
		}
		btat, err := b.Transpose().Mul(a.Transpose())
		if err != nil {
			return false
		}
		return matricesClose(ab.Transpose(), btat, 1e-12)
	}
	cfg := &quick.Config{MaxCount: 50, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func randomMatrix(r *rand.Rand, rows, cols int) *Matrix {
	m := NewMatrix(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			m.Set(i, j, r.NormFloat64())
		}
	}
	return m
}

// randomSymmetric returns B + Bᵀ for a random n×n matrix B.
func randomSymmetric(r *rand.Rand, n int) *Matrix {
	b := randomMatrix(r, n, n)
	a := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a.Set(i, j, b.At(i, j)+b.At(j, i))
		}
	}
	return a
}

func matricesClose(a, b *Matrix, tol float64) bool {
	if a.Rows() != b.Rows() || a.Cols() != b.Cols() {
		return false
	}
	for i := 0; i < a.Rows(); i++ {
		for j := 0; j < a.Cols(); j++ {
			if math.Abs(a.At(i, j)-b.At(i, j)) > tol {
				return false
			}
		}
	}
	return true
}

func TestVectorHelpers(t *testing.T) {
	if got := Dot([]float64{1, 2, 3}, []float64{4, 5, 6}); got != 32 {
		t.Errorf("Dot = %v, want 32", got)
	}
}
