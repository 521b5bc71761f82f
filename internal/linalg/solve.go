package linalg

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular reports a (numerically) singular system.
var ErrSingular = errors.New("linalg: singular matrix")

// LU holds an LU factorization with partial pivoting: P·A = L·U.
type LU struct {
	lu   *Matrix
	perm []int
}

// NewLU factorizes a square matrix.
func NewLU(a *Matrix) (*LU, error) {
	n := a.Rows()
	if a.Cols() != n {
		return nil, fmt.Errorf("%w: LU of %dx%d", ErrDimensionMismatch, n, a.Cols())
	}
	lu := a.Clone()
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	for col := 0; col < n; col++ {
		// Partial pivot.
		pivot := col
		maxAbs := math.Abs(lu.At(col, col))
		for r := col + 1; r < n; r++ {
			if v := math.Abs(lu.At(r, col)); v > maxAbs {
				pivot, maxAbs = r, v
			}
		}
		if maxAbs == 0 {
			return nil, fmt.Errorf("%w: zero pivot at column %d", ErrSingular, col)
		}
		if pivot != col {
			for c := 0; c < n; c++ {
				tmp := lu.At(col, c)
				lu.Set(col, c, lu.At(pivot, c))
				lu.Set(pivot, c, tmp)
			}
			perm[col], perm[pivot] = perm[pivot], perm[col]
		}
		inv := 1 / lu.At(col, col)
		for r := col + 1; r < n; r++ {
			f := lu.At(r, col) * inv
			lu.Set(r, col, f)
			for c := col + 1; c < n; c++ {
				lu.Set(r, c, lu.At(r, c)-f*lu.At(col, c))
			}
		}
	}
	return &LU{lu: lu, perm: perm}, nil
}

// SolveVec solves A·x = b.
func (f *LU) SolveVec(b []float64) ([]float64, error) {
	n := f.lu.Rows()
	if len(b) != n {
		return nil, fmt.Errorf("%w: rhs length %d for %dx%d system", ErrDimensionMismatch, len(b), n, n)
	}
	x := make([]float64, n)
	// Forward substitution on the permuted rhs.
	for i := 0; i < n; i++ {
		s := b[f.perm[i]]
		for j := 0; j < i; j++ {
			s -= f.lu.At(i, j) * x[j]
		}
		x[i] = s
	}
	// Back substitution.
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= f.lu.At(i, j) * x[j]
		}
		x[i] = s / f.lu.At(i, i)
	}
	return x, nil
}

// Solve solves A·X = B column by column.
func (f *LU) Solve(b *Matrix) (*Matrix, error) {
	n := f.lu.Rows()
	if b.Rows() != n {
		return nil, fmt.Errorf("%w: B is %dx%d for %dx%d system", ErrDimensionMismatch, b.Rows(), b.Cols(), n, n)
	}
	out := NewMatrix(n, b.Cols())
	for c := 0; c < b.Cols(); c++ {
		x, err := f.SolveVec(b.Col(c))
		if err != nil {
			return nil, err
		}
		for r := 0; r < n; r++ {
			out.Set(r, c, x[r])
		}
	}
	return out, nil
}

// Solve is a convenience wrapper: factorize A and solve A·X = B.
func Solve(a, b *Matrix) (*Matrix, error) {
	lu, err := NewLU(a)
	if err != nil {
		return nil, err
	}
	return lu.Solve(b)
}

// CharPoly returns the characteristic polynomial det(λI − A) of a square
// matrix as ascending-power coefficients (length n+1, monic), computed
// with the Faddeev–LeVerrier recurrence — exact in O(n⁴) and fine for the
// small matrices ESPRIT produces.
func CharPoly(a *Matrix) ([]float64, error) {
	n := a.Rows()
	if a.Cols() != n {
		return nil, fmt.Errorf("%w: CharPoly of %dx%d", ErrDimensionMismatch, n, a.Cols())
	}
	coeffs := make([]float64, n+1)
	coeffs[n] = 1
	m := Identity(n)
	for k := 1; k <= n; k++ {
		am, err := a.Mul(m)
		if err != nil {
			return nil, err
		}
		tr, err := am.Trace()
		if err != nil {
			return nil, err
		}
		c := -tr / float64(k)
		coeffs[n-k] = c
		// M ← A·M + c·I
		for i := 0; i < n; i++ {
			am.Set(i, i, am.At(i, i)+c)
		}
		m = am
	}
	return coeffs, nil
}

// Eigenvalues returns all (complex) eigenvalues of a small square matrix
// via its characteristic polynomial. Intended for matrices up to ~12×12;
// use EigSym for symmetric matrices.
func Eigenvalues(a *Matrix) ([]complex128, error) {
	coeffs, err := CharPoly(a)
	if err != nil {
		return nil, err
	}
	return NewPolyReal(coeffs).Roots()
}
