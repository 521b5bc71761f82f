package arena

import (
	"math/cmplx"
	"testing"
)

// BenchmarkColumnarIngest measures the one transpose the columnar layout
// pays — turning a row-oriented [antenna][subcarrier] packet into
// per-channel column writes — and the read-side payoff: sweeping one
// channel's window sequentially via a view versus striding across
// packet-major storage. Warm-path allocs/op must be zero (gated strictly
// by cmd/benchreport).
func BenchmarkColumnarIngest(b *testing.B) {
	const (
		antennas    = 2
		subcarriers = 30
		window      = 512
	)

	// One synthetic packet's worth of CSI, row-major as it arrives.
	packet := make([][]complex128, antennas)
	for an := range packet {
		packet[an] = make([]complex128, subcarriers)
		for s := range packet[an] {
			packet[an][s] = complex(float64(an+1), float64(s+1))
		}
	}

	b.Run("transpose", func(b *testing.B) {
		a := New()
		// One channel per subcarrier: the stride engine's wrapped phase
		// difference.
		r := NewFloatRing(a, subcarriers, window)
		b.ReportAllocs()
		b.SetBytes(int64(antennas * subcarriers * 16))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			slot := r.Slot()
			rowA, rowB := packet[0], packet[1]
			for s := 0; s < subcarriers; s++ {
				r.Columns()[s][slot] = cmplx.Phase(rowA[s]) - cmplx.Phase(rowB[s])
			}
			r.Advance()
		}
	})

	b.Run("column-sweep", func(b *testing.B) {
		r := NewFloatRing(nil, subcarriers, window)
		for i := 0; i < window+window/3; i++ { // force a wrap
			slot := r.Slot()
			for s := 0; s < subcarriers; s++ {
				r.Columns()[s][slot] = float64(i + s)
			}
			r.Advance()
		}
		b.ReportAllocs()
		b.SetBytes(int64(subcarriers * window * 8))
		b.ResetTimer()
		var sink float64
		for i := 0; i < b.N; i++ {
			for s := 0; s < subcarriers; s++ {
				v, err := r.View(s, r.Head()-window, window)
				if err != nil {
					b.Fatal(err)
				}
				va, vb := v.a, v.b
				sum := 0.0
				for _, x := range va {
					sum += x
				}
				for _, x := range vb {
					sum += x
				}
				sink += sum
			}
		}
		benchSink = sink
	})

	b.Run("packet-sweep", func(b *testing.B) {
		// The pre-refactor layout: per-packet rows, so reading one
		// subcarrier's series strides across packets.
		pkts := make([][]float64, window)
		for i := range pkts {
			pkts[i] = make([]float64, subcarriers)
			for s := range pkts[i] {
				pkts[i][s] = float64(i + s)
			}
		}
		b.ReportAllocs()
		b.SetBytes(int64(subcarriers * window * 8))
		b.ResetTimer()
		var sink float64
		for i := 0; i < b.N; i++ {
			for s := 0; s < subcarriers; s++ {
				sum := 0.0
				for p := 0; p < window; p++ {
					sum += pkts[p][s]
				}
				sink += sum
			}
		}
		benchSink = sink
	})
}

var benchSink float64
