package core

import (
	"fmt"
	"strings"
	"sync/atomic"
)

// Health is the streaming Monitor's input-discipline summary: cumulative
// counts of every packet the quarantine rejected, every window reset
// caused by a timestamp gap, and every packet or update shed under
// backlog. A copy rides on each Update so a consumer can judge — without
// any side channel — whether the estimate it just received was computed
// from continuous, well-formed data or arrived while the ingest path was
// degraded.
type Health struct {
	// Accepted is the number of packets that passed quarantine and
	// entered the analysis window.
	Accepted uint64
	// QuarantinedMalformed counts packets rejected for a wrong shape:
	// antenna or subcarrier counts that do not match the configuration.
	QuarantinedMalformed uint64
	// QuarantinedNonFinite counts packets rejected because a CSI cell
	// held a NaN or Inf component.
	QuarantinedNonFinite uint64
	// QuarantinedNonMonotonic counts packets rejected because their
	// timestamp ran backwards relative to the last accepted packet.
	QuarantinedNonMonotonic uint64
	// GapResets counts window re-anchors: a timestamp gap larger than the
	// configured threshold discards the buffered window instead of
	// splicing discontinuous data.
	GapResets uint64
	// PacketsDropped is the drop-on-backlog ingest shed count.
	PacketsDropped uint64
	// UpdatesReplaced counts stale undelivered updates that were replaced
	// by a newer one in drop-on-backlog mode — estimates a slow consumer
	// never saw.
	UpdatesReplaced uint64
	// ObserverPanics counts panics recovered from a third-party
	// StageObserver or StrideSink: the run loop survives them, but the
	// observer's view of those strides is incomplete.
	ObserverPanics uint64
}

// Quarantined returns the total packets rejected across all causes.
func (h Health) Quarantined() uint64 {
	return h.QuarantinedMalformed + h.QuarantinedNonFinite + h.QuarantinedNonMonotonic
}

// Degraded reports whether any fault has been observed: quarantined
// packets, gap resets, or backlog shedding. A consumer that requires
// clean provenance can compare successive updates' Health and discard
// estimates whose delta is degraded.
func (h Health) Degraded() bool {
	return h.Quarantined() > 0 || h.GapResets > 0 || h.PacketsDropped > 0 ||
		h.UpdatesReplaced > 0 || h.ObserverPanics > 0
}

// Sub returns the component-wise difference h - prev: the faults observed
// since a previous snapshot. Each component saturates at zero instead of
// wrapping, so a stale or mismatched prev (a snapshot taken from a
// different Monitor, or one retained across a restart) yields a zero
// delta rather than a near-2^64 fault count.
func (h Health) Sub(prev Health) Health {
	return Health{
		Accepted:                satSub(h.Accepted, prev.Accepted),
		QuarantinedMalformed:    satSub(h.QuarantinedMalformed, prev.QuarantinedMalformed),
		QuarantinedNonFinite:    satSub(h.QuarantinedNonFinite, prev.QuarantinedNonFinite),
		QuarantinedNonMonotonic: satSub(h.QuarantinedNonMonotonic, prev.QuarantinedNonMonotonic),
		GapResets:               satSub(h.GapResets, prev.GapResets),
		PacketsDropped:          satSub(h.PacketsDropped, prev.PacketsDropped),
		UpdatesReplaced:         satSub(h.UpdatesReplaced, prev.UpdatesReplaced),
		ObserverPanics:          satSub(h.ObserverPanics, prev.ObserverPanics),
	}
}

// satSub is a - b clamped at zero.
func satSub(a, b uint64) uint64 {
	if a < b {
		return 0
	}
	return a - b
}

// String renders the non-zero fault counts compactly, e.g.
// "quarantined 3 (non-finite 2, non-monotonic 1), gap resets 1"; a clean
// summary reads "ok".
func (h Health) String() string {
	if !h.Degraded() {
		return "ok"
	}
	var parts []string
	if q := h.Quarantined(); q > 0 {
		var causes []string
		if h.QuarantinedMalformed > 0 {
			causes = append(causes, fmt.Sprintf("malformed %d", h.QuarantinedMalformed))
		}
		if h.QuarantinedNonFinite > 0 {
			causes = append(causes, fmt.Sprintf("non-finite %d", h.QuarantinedNonFinite))
		}
		if h.QuarantinedNonMonotonic > 0 {
			causes = append(causes, fmt.Sprintf("non-monotonic %d", h.QuarantinedNonMonotonic))
		}
		parts = append(parts, fmt.Sprintf("quarantined %d (%s)", q, strings.Join(causes, ", ")))
	}
	if h.GapResets > 0 {
		parts = append(parts, fmt.Sprintf("gap resets %d", h.GapResets))
	}
	if h.PacketsDropped > 0 {
		parts = append(parts, fmt.Sprintf("packets dropped %d", h.PacketsDropped))
	}
	if h.UpdatesReplaced > 0 {
		parts = append(parts, fmt.Sprintf("updates replaced %d", h.UpdatesReplaced))
	}
	if h.ObserverPanics > 0 {
		parts = append(parts, fmt.Sprintf("observer panics %d", h.ObserverPanics))
	}
	return strings.Join(parts, ", ")
}

// healthCounters is the Monitor's live, concurrency-safe counter set.
// Ingest (producer goroutines) and the worker both write; Health() and
// update snapshots read.
type healthCounters struct {
	accepted       atomic.Uint64
	malformed      atomic.Uint64
	nonFinite      atomic.Uint64
	nonMonotonic   atomic.Uint64
	gapResets      atomic.Uint64
	dropped        atomic.Uint64
	replaced       atomic.Uint64
	observerPanics atomic.Uint64
}

// snapshot reads a consistent-enough copy for reporting (counters only
// ever increase; exact cross-counter atomicity is not needed).
func (c *healthCounters) snapshot() Health {
	return Health{
		Accepted:                c.accepted.Load(),
		QuarantinedMalformed:    c.malformed.Load(),
		QuarantinedNonFinite:    c.nonFinite.Load(),
		QuarantinedNonMonotonic: c.nonMonotonic.Load(),
		GapResets:               c.gapResets.Load(),
		PacketsDropped:          c.dropped.Load(),
		UpdatesReplaced:         c.replaced.Load(),
		ObserverPanics:          c.observerPanics.Load(),
	}
}
