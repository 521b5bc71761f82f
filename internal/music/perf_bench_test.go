package music

import (
	"math/rand"
	"testing"
)

// BenchmarkRootMUSIC measures a full root-MUSIC frequency estimate —
// forward-backward correlation, eigendecomposition and polynomial
// rooting — at the pipeline's production operating point (window 32,
// two signals, 20 Hz series), over a breathing-band two-tone fixture.
func BenchmarkRootMUSIC(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	fs := 20.0
	series := makeSinusoids(rng, []float64{0.25, 0.40}, fs, int(60*fs), 6, 0.05)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EstimateFrequencies(series, 2, fs, 32); err != nil {
			b.Fatal(err)
		}
	}
}
