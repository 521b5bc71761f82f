package core

import (
	"fmt"
	"math"
	"math/cmplx"
	"sort"

	"phasebeat/internal/dsp"
	"phasebeat/internal/trace"
)

// SubcarrierSelection records the outcome of PhaseBeat's sensitivity-based
// subcarrier selection.
type SubcarrierSelection struct {
	// MAD holds the mean absolute deviation of every subcarrier's
	// calibrated series (Fig. 7).
	MAD []float64
	// Eligible marks the subcarriers that passed the amplitude SNR gate
	// (nil when no gate was applied).
	Eligible []bool
	// TopK lists the k eligible subcarrier indices with the largest MAD,
	// descending.
	TopK []int
	// Selected is the finally chosen subcarrier: the median-MAD member of
	// TopK.
	Selected int
	// GateFallback reports that the amplitude gate rejected every
	// subcarrier and the ranking proceeded ungated (a degenerate gate must
	// not starve the pipeline); Rejected counts the gated-out subcarriers
	// regardless of fallback.
	GateFallback bool
	Rejected     int
}

// SelectSubcarrier ranks subcarriers by the mean absolute deviation of
// their calibrated phase-difference series, takes the k largest, and
// selects the one with the median MAD among those k — the paper's guard
// against a single outlier subcarrier.
//
// eligible optionally excludes subcarriers from the ranking (false =
// excluded). The pipeline passes an amplitude SNR gate here: a subcarrier
// in a deep frequency-selective fade on either antenna carries
// noise-dominated phase whose random walk has a huge MAD — exactly what a
// raw sensitivity ranking would greedily select. nil (or all-false)
// disables the gate.
func SelectSubcarrier(calibrated [][]float64, k int, eligible []bool) (*SubcarrierSelection, error) {
	n := len(calibrated)
	if n == 0 {
		return nil, fmt.Errorf("%w: no subcarriers", ErrNoData)
	}
	if k < 1 {
		return nil, fmt.Errorf("core: TopK %d < 1", k)
	}
	if k > n {
		k = n
	}
	ok := func(i int) bool { return eligible == nil || i >= len(eligible) || eligible[i] }
	anyEligible := false
	rejected := 0
	for i := 0; i < n; i++ {
		if ok(i) {
			anyEligible = true
		} else {
			rejected++
		}
	}
	fallback := false
	if !anyEligible {
		eligible = nil // degenerate gate: fall back to all subcarriers
		fallback = rejected > 0
	}
	sel := &SubcarrierSelection{
		MAD:          make([]float64, n),
		Eligible:     eligible,
		GateFallback: fallback,
		Rejected:     rejected,
	}
	for i, series := range calibrated {
		sel.MAD[i] = dsp.MeanAbsDev(series)
	}
	order := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if ok(i) {
			order = append(order, i)
		}
	}
	sort.Slice(order, func(a, b int) bool { return sel.MAD[order[a]] > sel.MAD[order[b]] })
	if k > len(order) {
		k = len(order)
	}
	sel.TopK = order[:k]

	// Median-MAD member of the top k.
	top := make([]int, k)
	copy(top, sel.TopK)
	sort.Slice(top, func(a, b int) bool { return sel.MAD[top[a]] < sel.MAD[top[b]] })
	sel.Selected = top[k/2]
	return sel, nil
}

// AmplitudeGate computes the per-subcarrier eligibility mask from mean
// CSI amplitudes: a subcarrier is eligible when its weaker antenna's mean
// amplitude is at least fraction·median(all subcarriers' weaker-antenna
// amplitudes). fraction around 0.3 rejects deep fades without touching
// healthy subcarriers. The amplitude sums are exact (dsp.ExactSum), which
// is what lets the Monitor reproduce the decision from block sums.
func AmplitudeGate(tr *trace.Trace, antennaA, antennaB int, fraction float64) []bool {
	if tr == nil || tr.Len() == 0 {
		return nil
	}
	n := tr.NumSubcarriers
	// Packet-major, like the Monitor's ingest: each packet's CSI rows are
	// read once, sequentially, into 2n independent sums.
	sums := make([]dsp.ExactSum, 2*n)
	for _, p := range tr.Packets {
		rowA, rowB := p.CSI[antennaA][:n], p.CSI[antennaB][:n]
		for s := range n {
			sums[2*s].Add(cmplx.Abs(rowA[s]))
			sums[2*s+1].Add(cmplx.Abs(rowB[s]))
		}
	}
	weaker := make([]float64, n)
	for s := range weaker {
		weaker[s] = math.Min(sums[2*s].Float64(), sums[2*s+1].Float64()) / float64(tr.Len())
	}
	med := dsp.Median(weaker)
	out := make([]bool, n)
	for s, w := range weaker {
		out[s] = w >= fraction*med
	}
	return out
}
