package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"phasebeat/internal/arena"
	"phasebeat/internal/core"
	"phasebeat/internal/csisim"
)

// batchShape sizes the closed-loop batch workload: a fixed set of seeded
// traces, processed one at a time, round robin, for the measured interval.
type batchShape struct {
	name          string
	traces        int
	twoPerson     int // how many of the traces hold two people
	rate, seconds float64
	kinds         []csisim.ScenarioKind
	breathBound   float64
}

func runBatch(shape batchShape, opts runOpts) (*result, error) {
	res := newResult(shape.name)
	setupStart := time.Now()
	scenes, err := generateScenes(sceneSpecs(opts.seed, shape.traces, shape.twoPerson, shape.kinds),
		shape.rate, shape.seconds, 30, stationaryVet(core.DefaultConfig()))
	if err != nil {
		return nil, err
	}
	var obs *stageTimer
	if opts.traced {
		obs = newStageTimer(true)
	}
	heap0 := liveHeapBytes()
	// One long-lived Processor per person count — the batch service's
	// "sessions" — each pooling its window slabs on its own arena. They
	// run the serial path: cmd/experiments spreads its trials over the
	// cores, and a call fanned out over both CPUs waits for the slower
	// one, so on a shared host its time spreads more from run to run (see
	// LEDGER.md).
	procs := map[int]*core.Processor{}
	for _, sc := range scenes {
		if procs[sc.spec.persons] != nil {
			continue
		}
		cfg := core.DefaultConfig()
		cfg.Parallelism = 1
		popts := []core.Option{core.WithConfig(cfg), core.WithPersons(sc.spec.persons), core.WithArena(arena.New())}
		if obs != nil {
			popts = append(popts, core.WithObserver(obs))
		}
		p, err := core.NewProcessor(popts...)
		if err != nil {
			return nil, err
		}
		// Warm-up: one untimed trace, so the arena holds its slabs (every
		// trace has the same shape) and the timed calls are all warm.
		if _, err := p.Process(sc.tr); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		procs[sc.spec.persons] = p
	}
	if obs != nil {
		obs.reset()
	}
	next := rand.New(rand.NewSource(opts.seed + 3)).Intn(len(scenes))
	res.set("setup_s", time.Since(setupStart).Seconds(), "s", 1)

	var (
		lat      dist // ms per trace
		cpuLat   dist // process CPU seconds per trace
		perTrace = make([]dist, len(scenes))
		acc      accuracy
		n        int
	)
	cpu0 := cpuSeconds()
	samp := startSampler()
	start := time.Now()
	end := start.Add(time.Duration(opts.seconds * float64(time.Second)))
	for time.Now().Before(end) {
		i := next % len(scenes)
		sc := scenes[i]
		next++
		t0, c0 := time.Now(), cpuSeconds()
		r, err := procs[sc.spec.persons].Process(sc.tr)
		d := time.Since(t0)
		cpuLat.add(cpuSeconds() - c0)
		lat.addDur(d, time.Millisecond)
		perTrace[i].addDur(d, time.Millisecond)
		n++
		res.attempted++
		est, ok := estimateOf(r)
		switch {
		case err != nil || !ok:
			res.failed++
			res.infof("trace %d (%v, %d persons, %.1f m): no estimate: %v", (next-1)%len(scenes), sc.spec.kind, sc.spec.persons, sc.spec.dist, err)
		case !est.finite():
			res.problem("trace %d: non-finite rate %v", next-1, est)
		default:
			acc.score(est, sc.truth)
		}
	}
	wall := time.Since(start).Seconds()
	cpu := cpuSeconds() - cpu0
	samp.end()
	heap1 := liveHeapBytes()
	runtime.KeepAlive(scenes)

	setLatency(res, &lat)
	// Stream seconds per CPU second from the median call, not the run's
	// total: a host stall inflates the CPU time of the calls it hits, and
	// the median leaves them out.
	res.set("sessions_per_core", shape.seconds/cpuLat.q(0.5), "sessions/core", n)
	res.set("live_heap_per_session_kb", (heap1-heap0)/float64(len(procs))/1024, "kB", len(procs))
	res.set("core.batch.traces_per_s", float64(n)/wall, "1/s", n)
	res.set("core.batch.process_ms_p50", lat.q(0.5), "ms", n)
	res.infof("%d traces of %.0fs in %.2fs wall, %.2f CPU s", n, shape.seconds, wall, cpu)
	var per []string
	for i := range perTrace {
		sp := scenes[i].spec
		per = append(per, fmt.Sprintf("%v/%dp %.0f (n=%d)", sp.kind, sp.persons, perTrace[i].q(0.5), perTrace[i].n()))
	}
	res.infof("per-trace p50 ms: %s", strings.Join(per, ", "))
	acc.report(res, shape.breathBound)
	samp.report(res)
	if obs != nil {
		for _, s := range stageNames {
			res.setDist("core.batch.stage."+s+"_ms_p50", obs.stages[s], 0.5, "ms")
			res.setDist("core.batch.stage."+s+"_ms_p99", obs.stages[s], 0.99, "ms")
		}
		total := time.Duration(lat.sum() * float64(time.Millisecond))
		if total > 0 {
			res.set("trace.unexplained_frac", float64(total-obs.total)/float64(total), "frac", n)
		}
		res.recon = fmt.Sprintf("Σ Process %.1f ms vs Σ stage observer %.1f ms over %d traces: %.2f%% of Process outside the nine stages",
			ms64(total), ms64(obs.total), n, 100*float64(total-obs.total)/float64(total))
	}
	return res, nil
}
