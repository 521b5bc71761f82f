package main

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"time"

	"phasebeat/internal/store"
)

// readerTiers is the query mix: auto-picked, each explicit tier, and raw
// block decoding.
var readerTiers = []string{"", "", "1s", "10s", "60s", store.RawTier, store.RawTier}

// readerSpans are the query spans in stream seconds.
var readerSpans = []float64{2, 6, 20, 90}

// reader issues store range queries on a fixed schedule over random
// sessions (live or churned out) and spans, and checks every answer.
type reader struct {
	fr  *fleetRun
	rng *rand.Rand

	// Owned by the reader goroutine; read after it is joined.
	queries, failed, tierHits, blocksRead int
	latency                               dist // ms from due time
	rangeUS                               dist // µs per Range call
	bad                                   []string
}

func (rd *reader) run() {
	fr := rd.fr
	for q := 0; ; q++ {
		due := fr.sc.t0.Add(time.Duration(float64(q) / fr.shape.queriesPerSec * 1e9))
		if !due.Before(fr.end) {
			return
		}
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		ep := fr.reg.pick(rd.rng)
		// The epoch's stream so far, in trace seconds.
		first := float64(ep.start) / fr.sc.rate
		newest := float64(ep.plan.prefill)/fr.sc.rate + time.Since(fr.sc.t0).Seconds()
		span := readerSpans[rd.rng.Intn(len(readerSpans))]
		from := first
		if room := newest - span - first; room > 0 {
			from += rd.rng.Float64() * room
		}
		to := from + span
		tier := readerTiers[rd.rng.Intn(len(readerTiers))]

		t0 := time.Now()
		rr, err := fr.st.Range(ep.key, from, to, tier)
		done := time.Now()
		rd.queries++
		rd.rangeUS.addDur(done.Sub(t0), time.Microsecond)
		rd.latency.addDur(done.Sub(due), time.Millisecond)
		if err == nil {
			err = checkRange(rr, from, to, tier)
		}
		if err != nil {
			rd.failed++
			rd.bad = append(rd.bad, fmt.Sprintf("range %s [%.3f, %.3f) tier %q: %v", ep.key, from, to, tier, err))
			continue
		}
		rd.blocksRead += rr.BlocksRead
		if rr.Tier != store.RawTier {
			rd.tierHits++
		}
	}
}

// checkRange verifies a range answer against its request: a raw answer
// holds ascending samples inside [from, to); a tier answer names the
// requested tier (or, auto-picked, the coarsest tier fitting four bins
// into the span) and every bin is aligned to that tier, overlaps the
// range, is non-empty and brackets its boundary values.
func checkRange(rr *store.RangeResult, from, to float64, tier string) error {
	if tier == store.RawTier {
		if rr.Tier != store.RawTier {
			return fmt.Errorf("raw query answered from tier %q", rr.Tier)
		}
		for i, s := range rr.Samples {
			if s.T < from || s.T >= to {
				return fmt.Errorf("raw sample at %v outside the range", s.T)
			}
			if i > 0 && s.T < rr.Samples[i-1].T {
				return fmt.Errorf("raw samples out of order at %v", s.T)
			}
		}
		return nil
	}
	want := tier
	if want == "" {
		want = store.TierLabel(autoTier(to - from))
	}
	if rr.Tier != want {
		return fmt.Errorf("answered from tier %q, want %q", rr.Tier, want)
	}
	dur, err := strconv.ParseFloat(strings.TrimSuffix(rr.Tier, "s"), 64)
	if err != nil || dur <= 0 {
		return fmt.Errorf("unparseable tier %q", rr.Tier)
	}
	for _, series := range [][]store.TierBin{rr.Wave, rr.Breathing, rr.Heart} {
		for i, b := range series {
			if r := b.Start / dur; math.Abs(r-math.Round(r)) > 1e-6 {
				return fmt.Errorf("bin at %v not aligned to %v s", b.Start, dur)
			}
			if b.Start+dur <= from || b.Start >= to {
				return fmt.Errorf("bin at %v outside the range", b.Start)
			}
			if i > 0 && b.Start <= series[i-1].Start {
				return fmt.Errorf("bins out of order at %v", b.Start)
			}
			if b.Count == 0 || b.Min > b.Max || b.First < b.Min || b.First > b.Max || b.Last < b.Min || b.Last > b.Max {
				return fmt.Errorf("bin at %v inconsistent: %+v", b.Start, b)
			}
		}
	}
	return nil
}

// autoTier mirrors the store's documented auto-pick over its default
// tiers: the coarsest tier fitting at least four bins into the span, else
// the finest.
func autoTier(span float64) float64 {
	best := store.DefaultTierSeconds[0]
	for _, d := range store.DefaultTierSeconds {
		if d*4 <= span {
			best = d
		}
	}
	return best
}

func (rd *reader) account(res *result) {
	res.attempted += rd.queries
	res.failed += rd.failed
	for _, b := range rd.bad {
		res.problem("%s", b)
	}
	res.setDist("store.range_us_p50", &rd.rangeUS, 0.5, "us")
	res.setDist("store.range_us_p99", &rd.rangeUS, 0.99, "us")
	if rd.queries > 0 {
		res.set("store.tier_hit_ratio", float64(rd.tierHits)/float64(rd.queries), "frac", rd.queries)
	}
	res.set("store.blocks_read", float64(rd.blocksRead), "count", 0)
	res.infof("query latency: p50 %.4f ms, p99 %.4f ms (n=%d, %.0f queries/s)",
		rd.latency.q(0.5), rd.latency.q(0.99), rd.latency.n(), rd.fr.shape.queriesPerSec)
}
