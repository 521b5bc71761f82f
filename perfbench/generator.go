package main

import (
	"fmt"
	"sort"
	"time"

	"phasebeat/internal/fleet"
)

// generator drives one ingest connection: an open loop that sends each of
// its sessions' packets at the packet's due time, whether or not the
// server keeps up, and records how late it ran. Session lifecycle calls
// (open, churn) go over the generator's own control connection, so an
// ingest frame for a fresh key is always written after its Open returned.
type generator struct {
	id     int
	fr     *fleetRun
	traced bool

	ingest, ctl *fleet.Client
	plans       []*sessionPlan
	cur         []*epoch // current epoch of plans[i]
	churns      []churnEvent
	live        bool

	// Owned by the generator goroutine; read after it is joined.
	sent     int
	lag      dist // ms, send start minus due time, every packet
	ingestUS dist // µs per Client.Ingest call (traced passes)
	err      error
}

// open opens a session epoch over the control connection and registers it.
func (g *generator) open(pl *sessionPlan, gen, start int) (*epoch, error) {
	key := fmt.Sprintf("s%04d.%d", pl.idx, gen)
	if err := g.ctl.Open(key, fleet.SessionConfig{Persons: pl.persons}); err != nil {
		return nil, fmt.Errorf("open %s: %w", key, err)
	}
	sess, ok := g.fr.mgr.Get(key)
	if !ok {
		return nil, fmt.Errorf("open %s: session not registered", key)
	}
	ep := &epoch{plan: pl, key: key, gen: gen, start: start, sess: sess, sendAt: make(map[int]sendRecord)}
	ep.lastJ.Store(-1)
	g.fr.reg.add(ep)
	if g.live {
		g.fr.startWaiter(ep)
	}
	return ep, nil
}

// sortByPhase orders the generator's sessions by their send offset inside
// a packet interval, so one pass over them visits due times in order.
func (g *generator) sortByPhase() {
	idx := make([]int, len(g.plans))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return g.plans[idx[a]].phase < g.plans[idx[b]].phase })
	plans := make([]*sessionPlan, len(idx))
	cur := make([]*epoch, len(idx))
	for i, k := range idx {
		plans[i], cur[i] = g.plans[k], g.cur[k]
	}
	g.plans, g.cur = plans, cur
}

func (g *generator) run() {
	g.live = true
	fr := g.fr
	ci := 0
	for k := 0; ; k++ {
		tick := fr.sc.t0.Add(time.Duration(float64(k) / fr.sc.rate * 1e9))
		if !tick.Before(fr.end) {
			return
		}
		for i, pl := range g.plans {
			due := fr.sc.due(pl, pl.prefill+k)
			for ci < len(g.churns) && fr.sc.t0.Add(time.Duration(g.churns[ci].at*1e9)).Before(due) {
				if g.err = g.churn(g.churns[ci].idx, k, i); g.err != nil {
					return
				}
				ci++
			}
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
			ep := g.cur[i]
			j := pl.prefill + k
			now := time.Now()
			g.lag.addDur(now.Sub(due), time.Millisecond)
			if g.err = g.ingest.Ingest(ep.key, pl.scene.tr.Packets[j]); g.err != nil {
				return
			}
			g.sent++
			if g.traced {
				took := time.Since(now)
				g.ingestUS.addDur(took, time.Microsecond)
				if fr.sc.isTrigger(ep.start, j) {
					ep.sendAt[j] = sendRecord{at: now, took: took}
				}
			}
		}
	}
}

// churn closes the session idx's current epoch and continues its stream
// under a fresh key from stream index prefill+k. pos is the index of the
// generator's next session to send in tick k: sessions before it already
// sent tick k's packet.
func (g *generator) churn(idx, k, pos int) error {
	i := -1
	for n, pl := range g.plans {
		if pl.idx == idx {
			i = n
			break
		}
	}
	if i < 0 {
		return fmt.Errorf("churn: session %d not owned by generator %d", idx, g.id)
	}
	next := g.plans[i].prefill + k
	if i < pos {
		next++
	}
	old := g.cur[i]
	old.closedAt = time.Now()
	if err := g.ctl.CloseSession(old.key); err != nil {
		return fmt.Errorf("churn close %s: %w", old.key, err)
	}
	ep, err := g.open(g.plans[i], old.gen+1, next)
	if err != nil {
		return err
	}
	g.cur[i] = ep
	return nil
}
