package otrace

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"phasebeat/internal/metrics"
)

// SLOConfig defines a latency service-level objective over the
// ingest→update spans: "Objective of updates publish within Target".
// The tracker reports compliance as burn rates — the ratio of the
// observed bad fraction to the budgeted bad fraction (1 − Objective) —
// over a fast and a slow window, the standard multi-window form: a burn
// rate of 1.0 spends the error budget exactly as fast as the objective
// allows, 10 means the budget is burning ten times too fast.
type SLOConfig struct {
	// Target is the latency objective (required, > 0). An update whose
	// ingest→publish total exceeds Target is a breach.
	Target time.Duration
	// Objective is the fraction of updates that must meet Target.
	// 0 selects 0.999; otherwise must sit in (0, 1).
	Objective float64
	// FastWindow is the paging window. 0 selects 5 minutes.
	FastWindow time.Duration
	// SlowWindow is the trend window. 0 selects 1 hour.
	SlowWindow time.Duration
	// OnBurn, when non-nil, is called from the observing goroutine when
	// both burn rates reach burnThreshold, at most once per burnCooldown.
	// It runs outside the tracker lock, after the triggering span has
	// been retained — calling back into the Tracer (Spans, SLOReport) is
	// safe.
	OnBurn func(BurnReport)
}

// BurnReport is a point-in-time SLO summary: the /debug/spans "slo"
// object and the payload handed to OnBurn.
type BurnReport struct {
	TargetMS      float64 `json:"target_ms"`
	Objective     float64 `json:"objective"`
	FastWindowSec float64 `json:"fast_window_seconds"`
	SlowWindowSec float64 `json:"slow_window_seconds"`
	// FastBurn and SlowBurn are the windows' burn rates; FastBad and
	// SlowBad the raw bad fractions behind them.
	FastBurn float64 `json:"fast_burn"`
	SlowBurn float64 `json:"slow_burn"`
	FastBad  float64 `json:"fast_bad_fraction"`
	SlowBad  float64 `json:"slow_bad_fraction"`
	// Updates and Breaches count all observations since start.
	Updates  uint64 `json:"updates"`
	Breaches uint64 `json:"breaches"`
}

// TenantSLO is one session's lifetime compliance row.
type TenantSLO struct {
	Key      string  `json:"key"`
	Updates  uint64  `json:"updates"`
	Breaches uint64  `json:"breaches"`
	BadFrac  float64 `json:"bad_fraction"`
}

// burnBuckets is the ring resolution of each burn window. 15 buckets
// keeps the window edge error under ~7% of the window, plenty for a
// gauge whose alerting threshold is a factor, not a percentage.
const burnBuckets = 15

// burnWindow is a bucketed sliding window of good/bad counts. Buckets
// are addressed by absolute index (timestamp / bucketDur) so advancing
// across idle gaps zeroes exactly the stale buckets. Not self-locking —
// the sloTracker's mutex guards it.
type burnWindow struct {
	bucketDur int64 // nanos per bucket
	lastIdx   int64 // absolute index of the newest bucket
	bad       [burnBuckets]uint64
	total     [burnBuckets]uint64
}

func newBurnWindow(window time.Duration) *burnWindow {
	return &burnWindow{bucketDur: window.Nanoseconds() / burnBuckets}
}

// advance rotates the ring forward to the bucket containing now,
// zeroing any buckets skipped over.
func (w *burnWindow) advance(now int64) {
	idx := now / w.bucketDur
	if w.lastIdx == 0 {
		w.lastIdx = idx
		return
	}
	for ; w.lastIdx < idx; w.lastIdx++ {
		slot := (w.lastIdx + 1) % burnBuckets
		w.bad[slot] = 0
		w.total[slot] = 0
	}
}

func (w *burnWindow) observe(now int64, breach bool) {
	w.advance(now)
	slot := w.lastIdx % burnBuckets
	w.total[slot]++
	if breach {
		w.bad[slot]++
	}
}

// badFraction returns the window's bad/total ratio (0 when empty).
func (w *burnWindow) badFraction(now int64) float64 {
	w.advance(now)
	var bad, total uint64
	for i := range w.total {
		bad += w.bad[i]
		total += w.total[i]
	}
	if total == 0 {
		return 0
	}
	return float64(bad) / float64(total)
}

const (
	// burnThreshold fires OnBurn when both windows' burn rates reach it:
	// the error budget is being spent at least as fast as the objective
	// allows.
	burnThreshold = 1.0
	// burnCooldown is the minimum gap between OnBurn firings.
	burnCooldown = 5 * time.Minute
	// maxTenants caps the per-session compliance table; sessions beyond
	// the cap are folded into one overflow row, overflowTenant.
	maxTenants     = 4096
	overflowTenant = "~overflow"
)

// sloTracker owns the burn windows, the per-tenant compliance table and
// the OnBurn cooldown. One mutex serializes everything: the observe
// path runs once per published update (stride cadence, not packet
// cadence), so contention is negligible.
type sloTracker struct {
	cfg SLOConfig

	mu       sync.Mutex
	fast     *burnWindow
	slow     *burnWindow
	updates  uint64
	breaches uint64
	tenants  map[string]*tenantCounts
	lastBurn int64
}

type tenantCounts struct {
	updates  uint64
	breaches uint64
}

func newSLOTracker(cfg SLOConfig) (*sloTracker, error) {
	if cfg.Target <= 0 {
		return nil, fmt.Errorf("otrace: SLO target %v must be positive", cfg.Target)
	}
	if cfg.Objective == 0 {
		cfg.Objective = 0.999
	}
	if cfg.Objective <= 0 || cfg.Objective >= 1 {
		return nil, fmt.Errorf("otrace: SLO objective %v must sit in (0, 1)", cfg.Objective)
	}
	if cfg.FastWindow == 0 {
		cfg.FastWindow = 5 * time.Minute
	}
	if cfg.SlowWindow == 0 {
		cfg.SlowWindow = time.Hour
	}
	if cfg.FastWindow < burnBuckets*time.Nanosecond || cfg.SlowWindow < burnBuckets*time.Nanosecond {
		return nil, fmt.Errorf("otrace: SLO windows %v/%v too small", cfg.FastWindow, cfg.SlowWindow)
	}
	return &sloTracker{
		cfg:     cfg,
		fast:    newBurnWindow(cfg.FastWindow),
		slow:    newBurnWindow(cfg.SlowWindow),
		tenants: make(map[string]*tenantCounts),
	}, nil
}

// observe records one published update's total latency and returns
// whether it breached the target, plus a non-nil report when OnBurn
// should fire (both windows past the threshold, cooldown lapsed). The
// caller invokes OnBurn outside the lock, after retaining the span.
func (s *sloTracker) observe(key string, now int64, total time.Duration) (bool, *BurnReport) {
	breach := total > s.cfg.Target
	s.mu.Lock()
	defer s.mu.Unlock()
	s.updates++
	if breach {
		s.breaches++
	}
	s.fast.observe(now, breach)
	s.slow.observe(now, breach)
	tc := s.tenants[key]
	if tc == nil {
		if len(s.tenants) >= maxTenants {
			key = overflowTenant
			if tc = s.tenants[key]; tc == nil {
				tc = &tenantCounts{}
				s.tenants[key] = tc
			}
		} else {
			tc = &tenantCounts{}
			s.tenants[key] = tc
		}
	}
	tc.updates++
	if breach {
		tc.breaches++
	}
	if s.cfg.OnBurn != nil && breach {
		rep := s.reportLocked(now)
		if rep.FastBurn >= burnThreshold && rep.SlowBurn >= burnThreshold &&
			(s.lastBurn == 0 || now-s.lastBurn >= burnCooldown.Nanoseconds()) {
			s.lastBurn = now
			return breach, &rep
		}
	}
	return breach, nil
}

func (s *sloTracker) reportLocked(now int64) BurnReport {
	budget := 1 - s.cfg.Objective
	fastBad := s.fast.badFraction(now)
	slowBad := s.slow.badFraction(now)
	return BurnReport{
		TargetMS:      float64(s.cfg.Target) / float64(time.Millisecond),
		Objective:     s.cfg.Objective,
		FastWindowSec: s.cfg.FastWindow.Seconds(),
		SlowWindowSec: s.cfg.SlowWindow.Seconds(),
		FastBurn:      fastBad / budget,
		SlowBurn:      slowBad / budget,
		FastBad:       fastBad,
		SlowBad:       slowBad,
		Updates:       s.updates,
		Breaches:      s.breaches,
	}
}

func (s *sloTracker) report(now int64) BurnReport {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.reportLocked(now)
}

// tenantTable returns the per-session compliance rows, worst bad
// fraction first (ties broken by key for stable output).
func (s *sloTracker) tenantTable() []TenantSLO {
	s.mu.Lock()
	out := make([]TenantSLO, 0, len(s.tenants))
	for key, tc := range s.tenants {
		row := TenantSLO{Key: key, Updates: tc.updates, Breaches: tc.breaches}
		if tc.updates > 0 {
			row.BadFrac = float64(tc.breaches) / float64(tc.updates)
		}
		out = append(out, row)
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].BadFrac != out[j].BadFrac {
			return out[i].BadFrac > out[j].BadFrac
		}
		return out[i].Key < out[j].Key
	})
	return out
}

// register wires the slo.* gauges: burn rates are computed at snapshot
// time from the windows, so the gauges are always current.
func (s *sloTracker) register(reg *metrics.Registry, prefix string) {
	reg.RegisterFunc(prefix+".slo.burn.fast", func() float64 { return s.report(Now()).FastBurn })
	reg.RegisterFunc(prefix+".slo.burn.slow", func() float64 { return s.report(Now()).SlowBurn })
	reg.RegisterFunc(prefix+".slo.updates", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(s.updates)
	})
	reg.RegisterFunc(prefix+".slo.breaches", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(s.breaches)
	})
	reg.Gauge(prefix + ".slo.target_ms").Set(float64(s.cfg.Target) / float64(time.Millisecond))
	reg.Gauge(prefix + ".slo.objective").Set(s.cfg.Objective)
}
