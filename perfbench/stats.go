package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is the number of samples a reported percentile must have
// beyond it: a tail figure resting on fewer is noise.
const minBeyond = 10

// dist is a sample of one measured quantity (a latency, a duration).
type dist struct {
	xs     []float64
	sorted bool
}

func (d *dist) add(x float64) {
	d.xs = append(d.xs, x)
	d.sorted = false
}

func (d *dist) addDur(x time.Duration, unit time.Duration) {
	d.add(float64(x) / float64(unit))
}

func (d *dist) n() int { return len(d.xs) }

// q returns the p-quantile (0 ≤ p ≤ 1) by linear interpolation between
// closest ranks; 0 for an empty sample.
func (d *dist) q(p float64) float64 {
	if len(d.xs) == 0 {
		return 0
	}
	if !d.sorted {
		sort.Float64s(d.xs)
		d.sorted = true
	}
	return quantileSorted(d.xs, p)
}

func (d *dist) sum() float64 {
	s := 0.0
	for _, x := range d.xs {
		s += x
	}
	return s
}

// quantileSorted interpolates the p-quantile of an ascending sample.
func quantileSorted(xs []float64, p float64) float64 {
	switch {
	case len(xs) == 0:
		return 0
	case p <= 0:
		return xs[0]
	case p >= 1:
		return xs[len(xs)-1]
	}
	pos := p * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo] + frac*(xs[lo+1]-xs[lo])
}

// highestSupported returns the highest percentile (as a fraction) with at
// least minBeyond samples beyond it, or 0 when the sample is too small
// for even the median.
func highestSupported(n int) float64 {
	if n < 2*minBeyond {
		return 0
	}
	return 1 - float64(minBeyond)/float64(n)
}
