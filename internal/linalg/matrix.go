// Package linalg provides the small dense linear-algebra kernel used by the
// PhaseBeat reproduction: real matrices, a symmetric eigensolver, and a
// complex polynomial root finder. It is deliberately minimal — just enough,
// implemented from scratch on the standard library, to support correlation
// matrices and root-MUSIC.
package linalg

import (
	"errors"
	"fmt"
	"math"
)

// ErrDimensionMismatch reports that two operands have incompatible shapes.
var ErrDimensionMismatch = errors.New("linalg: dimension mismatch")

// Matrix is a dense, row-major real matrix.
type Matrix struct {
	rows, cols int
	data       []float64
}

// NewMatrix returns a zero rows×cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic("linalg: negative matrix dimension")
	}
	return &Matrix{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.data[i*n+i] = 1
	}
	return m
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float64 { return m.data[i*m.cols+j] }

// Set assigns the element at row i, column j.
func (m *Matrix) Set(i, j int, v float64) { m.data[i*m.cols+j] = v }

// Row returns a copy of row i.
func (m *Matrix) Row(i int) []float64 {
	out := make([]float64, m.cols)
	copy(out, m.data[i*m.cols:(i+1)*m.cols])
	return out
}

// Col returns a copy of column j.
func (m *Matrix) Col(j int) []float64 {
	out := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		out[i] = m.data[i*m.cols+j]
	}
	return out
}

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.rows, m.cols)
	copy(c.data, m.data)
	return c
}

// Transpose returns mᵀ as a new matrix.
func (m *Matrix) Transpose() *Matrix {
	t := NewMatrix(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			t.data[j*t.cols+i] = m.data[i*m.cols+j]
		}
	}
	return t
}

// Scale multiplies every element by s in place and returns m.
func (m *Matrix) Scale(s float64) *Matrix {
	for i := range m.data {
		m.data[i] *= s
	}
	return m
}

// Add returns m + other as a new matrix.
func (m *Matrix) Add(other *Matrix) (*Matrix, error) {
	if m.rows != other.rows || m.cols != other.cols {
		return nil, fmt.Errorf("%w: %dx%d + %dx%d", ErrDimensionMismatch, m.rows, m.cols, other.rows, other.cols)
	}
	out := m.Clone()
	for i := range out.data {
		out.data[i] += other.data[i]
	}
	return out, nil
}

// Sub returns m - other as a new matrix.
func (m *Matrix) Sub(other *Matrix) (*Matrix, error) {
	if m.rows != other.rows || m.cols != other.cols {
		return nil, fmt.Errorf("%w: %dx%d - %dx%d", ErrDimensionMismatch, m.rows, m.cols, other.rows, other.cols)
	}
	out := m.Clone()
	for i := range out.data {
		out.data[i] -= other.data[i]
	}
	return out, nil
}

// Mul returns the matrix product m · other.
func (m *Matrix) Mul(other *Matrix) (*Matrix, error) {
	if m.cols != other.rows {
		return nil, fmt.Errorf("%w: %dx%d * %dx%d", ErrDimensionMismatch, m.rows, m.cols, other.rows, other.cols)
	}
	out := NewMatrix(m.rows, other.cols)
	for i := 0; i < m.rows; i++ {
		mrow := m.data[i*m.cols : (i+1)*m.cols]
		orow := out.data[i*out.cols : (i+1)*out.cols]
		for k, mv := range mrow {
			if mv == 0 {
				continue
			}
			brow := other.data[k*other.cols : (k+1)*other.cols]
			for j, bv := range brow {
				orow[j] += mv * bv
			}
		}
	}
	return out, nil
}

// MulVec returns the matrix-vector product m · v.
func (m *Matrix) MulVec(v []float64) ([]float64, error) {
	if m.cols != len(v) {
		return nil, fmt.Errorf("%w: %dx%d * vec(%d)", ErrDimensionMismatch, m.rows, m.cols, len(v))
	}
	out := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		row := m.data[i*m.cols : (i+1)*m.cols]
		var sum float64
		for j, rv := range row {
			sum += rv * v[j]
		}
		out[i] = sum
	}
	return out, nil
}

// OuterAccumulate adds scale · v vᵀ to m in place. m must be len(v)×len(v).
func (m *Matrix) OuterAccumulate(v []float64, scale float64) error {
	if m.rows != len(v) || m.cols != len(v) {
		return fmt.Errorf("%w: %dx%d += outer(vec(%d))", ErrDimensionMismatch, m.rows, m.cols, len(v))
	}
	for i, vi := range v {
		row := m.data[i*m.cols : (i+1)*m.cols]
		s := scale * vi
		for j, vj := range v {
			row[j] += s * vj
		}
	}
	return nil
}

// IsSymmetric reports whether m is square and symmetric within tol.
func (m *Matrix) IsSymmetric(tol float64) bool {
	if m.rows != m.cols {
		return false
	}
	for i := 0; i < m.rows; i++ {
		for j := i + 1; j < m.cols; j++ {
			if math.Abs(m.At(i, j)-m.At(j, i)) > tol {
				return false
			}
		}
	}
	return true
}

// FrobeniusNorm returns the Frobenius norm of m.
func (m *Matrix) FrobeniusNorm() float64 {
	var sum float64
	for _, v := range m.data {
		sum += v * v
	}
	return math.Sqrt(sum)
}

// Trace returns the sum of diagonal elements of a square matrix.
func (m *Matrix) Trace() (float64, error) {
	if m.rows != m.cols {
		return 0, fmt.Errorf("%w: trace of %dx%d", ErrDimensionMismatch, m.rows, m.cols)
	}
	var t float64
	for i := 0; i < m.rows; i++ {
		t += m.data[i*m.cols+i]
	}
	return t, nil
}

// String renders the matrix for debugging.
func (m *Matrix) String() string {
	s := fmt.Sprintf("Matrix(%dx%d)[", m.rows, m.cols)
	for i := 0; i < m.rows; i++ {
		if i > 0 {
			s += "; "
		}
		for j := 0; j < m.cols; j++ {
			if j > 0 {
				s += " "
			}
			s += fmt.Sprintf("%.4g", m.At(i, j))
		}
	}
	return s + "]"
}
