package linalg

import "math"

// Dot returns the inner product of two equal-length vectors.
// It panics if lengths differ, as that is always a programming error here.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("linalg: Dot length mismatch")
	}
	var s float64
	for i, av := range a {
		s += av * b[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of v.
func Norm2(v []float64) float64 {
	return math.Sqrt(Dot(v, v))
}

// Normalize scales v in place to unit Euclidean norm and returns it.
// A zero vector is returned unchanged.
func Normalize(v []float64) []float64 {
	n := Norm2(v)
	if n == 0 {
		return v
	}
	for i := range v {
		v[i] /= n
	}
	return v
}
