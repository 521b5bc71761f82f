package main

import (
	"fmt"
	"time"

	"phasebeat/internal/otrace"
)

// reconcile turns the traced pass's retained spans into the per-segment
// metrics and checks that the layers add up: for every in-scope update
// whose span and trigger send were recorded, the benchmark's own latency
// (due → Session.Wait return) is split into generator lag (due → send),
// the span's frame…deliver segments (server receive → publish) and the
// pickup dwell (publish → Wait). What remains is the wire (client encode,
// socket, server read) — trace.unexplained_frac. Separately, the stage
// observer's summed stage times are set against the summed compute
// segments they should explain.
func (fr *fleetRun) reconcile(res *result, spans []otrace.SpanRecord, obs *stageTimer) {
	type spanKey struct {
		key string
		seq uint64
	}
	byUpdate := make(map[spanKey]*otrace.SpanRecord, len(spans))
	// The stage observer is reset when the live interval starts; the
	// compute it should explain is that of the spans received since.
	var computeAll time.Duration
	for i := range spans {
		sp := &spans[i]
		byUpdate[spanKey{sp.Key, sp.Seq}] = sp
		if sp.StartNanos >= fr.sc.t0.UnixNano() {
			computeAll += time.Duration(segment(sp, otrace.SegCompute))
		}
	}
	segs := map[string]*dist{}
	for _, name := range []string{otrace.SegFrame, otrace.SegMailbox, otrace.SegQueue, otrace.SegCompute, otrace.SegDeliver} {
		segs[name] = &dist{}
	}
	var (
		pickup                           dist
		sumLat, sumGen, sumSpan, sumPick time.Duration
		sumClient                        time.Duration
		matched, unmatched               int
	)
	for _, ep := range fr.reg.all() {
		scope := fr.scopeEnd(ep)
		for _, a := range ep.got {
			if j := fr.sc.nominal(ep.start, a.j); j < 0 || !inScope(fr.sc.due(ep.plan, j), fr.sc.t0, scope) {
				continue
			}
			due := fr.sc.due(ep.plan, a.j)
			sp := byUpdate[spanKey{ep.key, a.seq}]
			send, sent := ep.sendAt[a.j]
			if sp == nil || !sent {
				unmatched++
				continue
			}
			matched++
			for name, d := range segs {
				d.addDur(time.Duration(segment(sp, name)), time.Millisecond)
			}
			pickup.addDur(time.Duration(sp.PickupNanos), time.Millisecond)
			sumLat += a.recv.Sub(due)
			sumGen += send.at.Sub(due)
			sumSpan += time.Duration(sp.TotalNanos)
			sumPick += time.Duration(sp.PickupNanos)
			sumClient += send.took
		}
	}
	ms := func(name string, p float64) float64 { return segs[name].q(p) }
	us := func(name string, p float64) float64 { return segs[name].q(p) * 1000 }
	n := segs[otrace.SegFrame].n()
	res.set("otrace.frame_us_p50", us(otrace.SegFrame, 0.5), "us", n)
	res.set("otrace.frame_us_p99", us(otrace.SegFrame, 0.99), "us", n)
	res.set("otrace.mailbox_us_p50", us(otrace.SegMailbox, 0.5), "us", n)
	res.set("otrace.mailbox_us_p99", us(otrace.SegMailbox, 0.99), "us", n)
	res.set("otrace.queue_ms_p50", ms(otrace.SegQueue, 0.5), "ms", n)
	res.set("otrace.queue_ms_p99", ms(otrace.SegQueue, 0.99), "ms", n)
	res.set("otrace.compute_ms_p50", ms(otrace.SegCompute, 0.5), "ms", n)
	res.set("otrace.compute_ms_p99", ms(otrace.SegCompute, 0.99), "ms", n)
	res.set("otrace.deliver_us_p50", us(otrace.SegDeliver, 0.5), "us", n)
	res.set("otrace.deliver_us_p99", us(otrace.SegDeliver, 0.99), "us", n)
	res.setDist("otrace.pickup_ms_p50", &pickup, 0.5, "ms")
	res.setDist("otrace.pickup_ms_p99", &pickup, 0.99, "ms")

	if sumLat <= 0 {
		res.recon = "no update matched a retained span"
		return
	}
	residual := sumLat - sumGen - sumSpan - sumPick
	res.set("trace.unexplained_frac", float64(residual)/float64(sumLat), "frac", matched)
	share := func(d time.Duration) float64 { return 100 * float64(d) / float64(sumLat) }
	stageGap := 0.0
	if computeAll > 0 {
		stageGap = 100 * float64(computeAll-obs.total) / float64(computeAll)
	}
	res.recon = fmt.Sprintf(
		"%d updates (%d unmatched), Σ latency %.1f ms = generator lag %.2f%% + frame…deliver %.2f%% + pickup %.2f%% + unexplained %.2f%% (client Ingest call Σ %.1f ms); "+
			"Σ stage observer %.1f ms vs Σ otrace compute %.1f ms: %.2f%% of compute outside the stages (quarantine, push, stride bookkeeping)",
		matched, unmatched, ms64(sumLat), share(sumGen), share(sumSpan), share(sumPick), share(residual), ms64(sumClient),
		ms64(obs.total), ms64(computeAll), stageGap)
}

// segment returns the named segment's nanoseconds in a span (0 if absent).
func segment(sp *otrace.SpanRecord, name string) int64 {
	for _, s := range sp.Segments {
		if s.Name == name {
			return s.Nanos
		}
	}
	return 0
}

func ms64(d time.Duration) float64 { return float64(d) / 1e6 }

func inScope(t, from, to time.Time) bool { return !t.Before(from) && t.Before(to) }
