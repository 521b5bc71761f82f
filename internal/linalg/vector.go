package linalg

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
