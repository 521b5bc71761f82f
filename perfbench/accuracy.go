package main

import (
	"math"
	"sort"

	"phasebeat/internal/core"
	"phasebeat/internal/csisim"
)

// estimate is what the benchmark keeps of one pipeline result: the rates
// it reported, not the window-sized intermediate products.
type estimate struct {
	breath []float64 // one per person, ascending
	heart  float64   // 0 when not estimated
}

func estimateOf(res *core.Result) (estimate, bool) {
	if res == nil {
		return estimate{}, false
	}
	var e estimate
	switch {
	case res.MultiPerson != nil && len(res.MultiPerson.RatesBPM) > 0:
		e.breath = append([]float64(nil), res.MultiPerson.RatesBPM...)
		sort.Float64s(e.breath)
	case res.Breathing != nil:
		e.breath = []float64{res.Breathing.RateBPM}
	default:
		return estimate{}, false
	}
	if res.Heart != nil {
		e.heart = res.Heart.RateBPM
	}
	return e, true
}

// finite reports whether every reported rate is a finite number.
func (e estimate) finite() bool {
	for _, b := range e.breath {
		if math.IsNaN(b) || math.IsInf(b, 0) {
			return false
		}
	}
	return !math.IsNaN(e.heart) && !math.IsInf(e.heart, 0)
}

// errors scores an estimate against the simulator's ground truth: one
// breathing error per person (rates matched in ascending order) and, for
// a single person with a heart estimate, the heart error (ok false
// otherwise).
func (e estimate) errors(truth []csisim.VitalTruth) (breath []float64, heart float64, heartOK bool) {
	want := make([]float64, len(truth))
	for i, t := range truth {
		want[i] = t.BreathingBPM
	}
	sort.Float64s(want)
	for i := 0; i < len(want) && i < len(e.breath); i++ {
		breath = append(breath, math.Abs(e.breath[i]-want[i]))
	}
	if len(truth) == 1 && e.heart > 0 {
		return breath, math.Abs(e.heart - truth[0].HeartBPM), true
	}
	return breath, 0, false
}

// accuracy accumulates estimate errors over a pass.
type accuracy struct{ breath, heart dist }

func (a *accuracy) score(e estimate, truth []csisim.VitalTruth) {
	b, h, ok := e.errors(truth)
	for _, x := range b {
		a.breath.add(x)
	}
	if ok {
		a.heart.add(h)
	}
}

func (a *accuracy) report(r *result, breathBound float64) {
	r.setDist("eval.breath_err_bpm_p50", &a.breath, 0.5, "bpm")
	r.setDist("eval.heart_err_bpm_p50", &a.heart, 0.5, "bpm")
	r.infof("breath_err_bpm_p50 = %.4f bpm (n=%d), heart_err_bpm_p50 = %.4f bpm (n=%d)",
		a.breath.q(0.5), a.breath.n(), a.heart.q(0.5), a.heart.n())
	if a.breath.n() > 0 && a.breath.q(0.5) > breathBound {
		r.problem("breath_err_bpm_p50 %.3f bpm exceeds the %.1f bpm sanity bound", a.breath.q(0.5), breathBound)
	}
}
