package main

import (
	"fmt"
	"math"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"phasebeat/internal/core"
	"phasebeat/internal/csisim"
	"phasebeat/internal/fleet"
	"phasebeat/internal/metrics"
	"phasebeat/internal/otrace"
	"phasebeat/internal/store"
)

// fleetShape sizes one open-loop fleet workload.
type fleetShape struct {
	name string
	// Stream shape: packet rate (Hz), subcarriers per packet (3 antennas),
	// analysis window and stride (s).
	rate           float64
	subcarriers    int
	window, stride float64
	// sessions share scenes read-only; the last twoPersonScenes scenes hold
	// two people, and every twoPersonEvery-th session monitors one of them.
	sessions                int
	scenes, twoPersonScenes int
	twoPersonEvery          int
	kinds                   []csisim.ScenarioKind
	// conns is the number of ingest connections (≤ nproc).
	conns int
	// With store, every session is archived into a tiered store sealing
	// blocks of blockSeconds, a reader issues queriesPerSec range queries,
	// and churnPerSec of the sessions close and reopen each second.
	store         bool
	blockSeconds  float64
	queriesPerSec float64
	churnPerSec   float64
	// breathBound is the sanity bound on the median breathing error (bpm).
	breathBound float64
	// lagBound is how far behind schedule (as a fraction of the stride)
	// the generator's p99 lag may run before the pass is marked invalid.
	lagBound float64
}

func (s fleetShape) monitorConfig() core.MonitorConfig {
	mc := core.DefaultMonitorConfig()
	if s.rate != mc.SampleRate {
		mc.Pipeline = core.ConfigForRate(s.rate)
	}
	mc.SampleRate = s.rate
	mc.NumSubcarriers = s.subcarriers
	mc.WindowSeconds = s.window
	mc.UpdateEverySeconds = s.stride
	return mc
}

// sessionPlan is one session's fixed load: the scene it replays, how much
// of it is fed during setup, and where its packets sit inside each packet
// interval. Stream index j of the session is scene packet j; the live
// phase sends it at due(j) = T0 + (j − prefill + phase)/rate.
type sessionPlan struct {
	idx     int
	scene   *scene
	persons int
	prefill int
	phase   float64
	conn    int
}

// epoch is one session's life under one key: a churned session closes its
// epoch and continues its stream under a fresh key.
type epoch struct {
	plan  *sessionPlan
	key   string
	gen   int
	start int // first stream index fed under this key
	sess  *fleet.Session

	// Written by the owning generator goroutine; read after it is joined.
	closedAt time.Time
	sendAt   map[int]sendRecord

	// Written by the epoch's waiter goroutine; read after it is joined.
	got []arrival
	// lastJ is the newest stride-completing stream index received, for
	// the end-of-run straggler wait.
	lastJ atomic.Int64
}

type sendRecord struct {
	at   time.Time
	took time.Duration
}

// arrival is one update as a subscriber saw it.
type arrival struct {
	seq  uint64
	j    int // stream index of the packet that completed the stride
	recv time.Time
	err  error
	est  estimate
	ok   bool // est holds an estimate
}

// sched maps stream indices to due times for one pass.
type sched struct {
	t0   time.Time
	rate float64
	wp   int // window, packets
	sp   int // stride, packets
}

func (s sched) due(pl *sessionPlan, j int) time.Time {
	return s.t0.Add(time.Duration((float64(j-pl.prefill) + pl.phase) / s.rate * 1e9))
}

// isTrigger reports whether stream index j completes a stride of a
// Monitor whose window started at stream index start: the first update
// fires on the packet that fills the window, then one every stride.
func (s sched) isTrigger(start, j int) bool {
	n := j - start + 1
	return n >= s.wp && (n-s.wp)%s.sp == 0
}

// nominal maps the stream index of the packet that completed an update to
// the nominal stride-completing index it answers: the latest one at or
// before it (packets shed by the session delay a stride, never advance
// it). -1 before the window first fills.
func (s sched) nominal(start, j int) int {
	first := start + s.wp - 1
	if j < first {
		return -1
	}
	return first + (j-first)/s.sp*s.sp
}

// triggers lists the stride-completing stream indices of an epoch whose
// due times fall in [t0, scopeEnd).
func (s sched) triggers(ep *epoch, scopeEnd time.Time) []int {
	var out []int
	for j := ep.start + s.wp - 1; ; j += s.sp {
		d := s.due(ep.plan, j)
		if !d.Before(scopeEnd) {
			return out
		}
		if !d.Before(s.t0) {
			out = append(out, j)
		}
	}
}

// registry is the append-only list of epochs, shared with the reader.
type registry struct {
	mu     sync.Mutex
	epochs []*epoch
}

func (r *registry) add(ep *epoch) {
	r.mu.Lock()
	r.epochs = append(r.epochs, ep)
	r.mu.Unlock()
}

func (r *registry) pick(rng *rand.Rand) *epoch {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.epochs[rng.Intn(len(r.epochs))]
}

func (r *registry) all() []*epoch {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*epoch(nil), r.epochs...)
}

// fleetRun is the state of one fleet pass.
type fleetRun struct {
	shape  fleetShape
	sc     sched
	end    time.Time
	late   time.Duration // an update later than this after its due time fails
	plans  []*sessionPlan
	reg    registry
	mgr    *fleet.Manager
	st     *store.Store
	stop   chan struct{}
	waitWG sync.WaitGroup
}

func runFleet(shape fleetShape, opts runOpts) (*result, error) {
	res := newResult(shape.name)
	if shape.conns > runtime.NumCPU() {
		return nil, fmt.Errorf("%s: %d ingest connections exceed nproc %d", shape.name, shape.conns, runtime.NumCPU())
	}
	setupStart := time.Now()
	fr := &fleetRun{
		shape: shape,
		sc: sched{
			rate: shape.rate,
			wp:   int(shape.window * shape.rate),
			sp:   int(shape.stride * shape.rate),
		},
		late: time.Duration(shape.stride * float64(time.Second)),
		stop: make(chan struct{}),
	}

	// Inputs: the scenes cover the prefill (a window and a stride) plus
	// the live interval and one more stride of slack.
	streamSeconds := shape.window + 2*shape.stride + opts.seconds + 1
	scenes, err := generateScenes(sceneSpecs(opts.seed, shape.scenes, shape.twoPersonScenes, shape.kinds),
		shape.rate, streamSeconds, shape.subcarriers, stationaryVet(shape.monitorConfig().Pipeline))
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(opts.seed + 1))
	onePerson := shape.scenes - shape.twoPersonScenes
	fr.plans = make([]*sessionPlan, shape.sessions)
	for i := range fr.plans {
		sc := scenes[i%onePerson]
		if shape.twoPersonEvery > 0 && i%shape.twoPersonEvery == shape.twoPersonEvery-1 {
			sc = scenes[onePerson+i%shape.twoPersonScenes]
		}
		// The prefill fills the window and runs its first stride during
		// setup (the cold stride smooths the whole window; live strides are
		// incremental). Stagger: session i's first live update falls
		// i/sessions of a stride into the live interval, so strides never
		// land together.
		lead := i * fr.sc.sp / shape.sessions
		fr.plans[i] = &sessionPlan{
			idx: i, scene: sc, persons: sc.spec.persons,
			prefill: fr.sc.wp - 1 + fr.sc.sp - lead,
			phase:   rng.Float64(),
			conn:    i % shape.conns,
		}
	}

	// The system: optional store, optional tracer and hooks, the fleet
	// with phasebeatd's defaults, the frame server on loopback.
	var (
		rec    fleet.Recorder
		trec   *timedRecorder
		tracer *otrace.Tracer
		obs    *stageTimer
	)
	if shape.store {
		dir := filepath.Join(opts.workdir, fmt.Sprintf("store-%d", os.Getpid()))
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		fr.st, err = store.Open(store.Config{Dir: dir, BlockSeconds: shape.blockSeconds})
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		defer fr.st.Close()
		rec = storeRecorder{fr.st}
		if opts.traced {
			trec = &timedRecorder{next: rec}
			rec = trec
		}
	}
	mc := shape.monitorConfig()
	if opts.traced {
		tracer, err = otrace.New(otrace.Config{SampleEvery: 1, SlowThreshold: -1, RingCapacity: 1 << 17})
		if err != nil {
			return nil, err
		}
		obs = newStageTimer(false)
		mc.Pipeline.Observer = obs
	}
	heap0 := liveHeapBytes()
	// The registry only holds the fleet's callback gauges (read once, at
	// the end); it adds no work to the ingest path.
	reg := metrics.NewRegistry()
	fr.mgr, err = fleet.New(fleet.Config{
		MailboxDepth:  256,
		SessionBuffer: 64,
		Monitor:       mc,
		Metrics:       reg,
		Recorder:      rec,
		Tracer:        tracer,
	})
	if err != nil {
		return nil, err
	}
	defer fr.mgr.Close()
	tcp, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	var lis net.Listener = tcp
	wire := &countingListener{Listener: tcp}
	if opts.traced {
		lis = wire
	}
	srv := fleet.NewServer(fr.mgr, nil)
	var srvWG sync.WaitGroup
	srvWG.Add(1)
	go func() {
		defer srvWG.Done()
		srv.Serve(lis)
	}()
	defer srvWG.Wait()
	defer srv.Shutdown()

	gens := make([]*generator, shape.conns)
	for g := range gens {
		gen := &generator{id: g, fr: fr, traced: opts.traced}
		if gen.ingest, err = fleet.Dial("tcp", tcp.Addr().String()); err != nil {
			return nil, err
		}
		defer gen.ingest.Close()
		if gen.ctl, err = fleet.Dial("tcp", tcp.Addr().String()); err != nil {
			return nil, err
		}
		defer gen.ctl.Close()
		gens[g] = gen
	}
	for _, pl := range fr.plans {
		g := gens[pl.conn]
		ep, err := g.open(pl, 0, 0)
		if err != nil {
			return nil, err
		}
		g.plans = append(g.plans, pl)
		g.cur = append(g.cur, ep)
	}
	if err := fr.prefill(); err != nil {
		return nil, err
	}
	churnSchedule(gens, opts, shape, rng)
	for _, g := range gens {
		g.sortByPhase()
	}
	setup := time.Since(setupStart).Seconds()

	// Live interval.
	if obs != nil {
		obs.reset()
	}
	if trec != nil {
		trec.reset()
	}
	fr.sc.t0 = time.Now().Add(20 * time.Millisecond)
	fr.end = fr.sc.t0.Add(time.Duration(opts.seconds * float64(time.Second)))
	for _, ep := range fr.reg.all() {
		fr.startWaiter(ep)
	}
	cpu0 := cpuSeconds()
	samp := startSampler()
	arena0, health0 := fr.mgr.ArenaStats(), fr.mgr.Health()
	wire0 := wire.read.Load()
	var blocks0 int
	if fr.st != nil {
		blocks0 = fr.st.Stats().Blocks
	}
	var genWG sync.WaitGroup
	for _, g := range gens {
		genWG.Add(1)
		go func(g *generator) {
			defer genWG.Done()
			g.run()
		}(g)
	}
	var rd *reader
	if fr.st != nil && shape.queriesPerSec > 0 {
		rd = &reader{fr: fr, rng: rand.New(rand.NewSource(opts.seed + 2))}
		genWG.Add(1)
		go func() {
			defer genWG.Done()
			rd.run()
		}()
	}
	genWG.Wait()
	cpu := cpuSeconds() - cpu0
	fr.awaitStragglers()
	samp.end()
	arena1, health1 := fr.mgr.ArenaStats(), fr.mgr.Health()
	wireBytes := wire.read.Load() - wire0
	heap1 := liveHeapBytes()

	// Teardown: stop the subscribers, then the fleet; the deferred calls
	// close the server, clients and store.
	close(fr.stop)
	fr.mgr.Close()
	fr.waitWG.Wait()
	if n, _ := reg.Snapshot()["fleet.record.errors"].(float64); n > 0 {
		res.problem("fleet.record.errors = %.0f: the archive lost data", n)
	}

	for _, g := range gens {
		if g.err != nil {
			return nil, g.err
		}
	}
	res.set("setup_s", setup, "s", 1)
	fr.account(res)
	sent := 0
	var lag dist
	for _, g := range gens {
		sent += g.sent
		lag.xs = append(lag.xs, g.lag.xs...)
	}
	res.set("sessions_per_core", float64(shape.sessions)*opts.seconds/cpu, "sessions/core", 0)
	res.set("live_heap_per_session_kb", (heap1-heap0)/float64(shape.sessions)/1024, "kB", shape.sessions)
	res.setDist("gen.lag_p99_ms", &lag, 0.99, "ms")
	res.infof("generator lag behind schedule: p50 %.3f ms, p99 %.3f ms (n=%d)", lag.q(0.5), lag.q(0.99), lag.n())
	res.set("gen.packets_sent", float64(sent), "count", 0)
	if bound := shape.lagBound * shape.stride * 1000; lag.q(0.99) > bound {
		res.invalid = fmt.Sprintf("generator p99 lag %.1f ms exceeds %.0f ms (%.0f%% of a stride): the load was not the stated load",
			lag.q(0.99), bound, shape.lagBound*100)
	}
	if rd != nil {
		rd.account(res)
	}
	samp.report(res)
	res.infof("%d sessions over %d ingest connections, %d packets sent, %.2f CPU s, churned %d",
		shape.sessions, shape.conns, sent, cpu, len(fr.reg.all())-shape.sessions)

	dropped := health1.PacketsDropped - health0.PacketsDropped
	res.set("fleet.packet_loss_frac", float64(dropped)/math.Max(1, float64(sent)), "frac", sent)
	res.set("fleet.updates_replaced", float64(health1.UpdatesReplaced-health0.UpdatesReplaced), "count", 0)
	allocs, reuses := float64(arena1.Allocs-arena0.Allocs), float64(arena1.Reuses-arena0.Reuses)
	res.set("arena.allocs", allocs, "count", 0)
	res.set("arena.reuses", reuses, "count", 0)
	if allocs+reuses > 0 {
		res.set("arena.reuse_ratio", reuses/(allocs+reuses), "frac", 0)
	}
	if opts.traced {
		res.set("fleet.wire_bytes_per_packet", float64(wireBytes)/math.Max(1, float64(sent)), "B", sent)
		var ingest dist
		for _, g := range gens {
			ingest.xs = append(ingest.xs, g.ingestUS.xs...)
		}
		res.setDist("fleet.client_ingest_us_p50", &ingest, 0.5, "us")
		res.setDist("fleet.client_ingest_us_p99", &ingest, 0.99, "us")
		for _, s := range stageNames[1:] {
			res.setDist("core.stage."+s+"_ms_p50", obs.stages[s], 0.5, "ms")
			res.setDist("core.stage."+s+"_ms_p99", obs.stages[s], 0.99, "ms")
		}
		fr.reconcile(res, tracer.Spans(), obs)
	}
	if trec != nil {
		fr.storeLayers(res, trec, blocks0)
	}
	return res, nil
}

// prefill feeds every session its setup packets in-process, in rounds no
// larger than a session's ingest buffer, waiting for each round to be
// accepted — a loss-free fill, so every window starts exactly where the
// schedule says.
func (fr *fleetRun) prefill() error {
	const round = 48 // below fleet SessionBuffer (64): no session can shed
	deadline := time.Now().Add(120 * time.Second)
	eps := fr.reg.all()
	for lo := 0; ; lo += round {
		fed := false
		for _, ep := range eps {
			hi := min(lo+round, ep.plan.prefill)
			for j := lo; j < hi; j++ {
				if err := fr.mgr.Ingest(ep.key, ep.plan.scene.tr.Packets[j]); err != nil {
					return err
				}
				fed = true
			}
		}
		if !fed {
			break
		}
		for _, ep := range eps {
			want := uint64(min(lo+round, ep.plan.prefill))
			for ep.sess.Health().Accepted < want {
				if time.Now().After(deadline) {
					return fmt.Errorf("prefill: session %s stuck at %d/%d packets", ep.key, ep.sess.Health().Accepted, want)
				}
				time.Sleep(100 * time.Microsecond)
			}
		}
	}
	// Every window has completed its warm-up stride; wait until each
	// session has published that update.
	for _, ep := range eps {
		for ep.sess.Seq() == 0 {
			if time.Now().After(deadline) {
				return fmt.Errorf("prefill: session %s published no warm-up update", ep.key)
			}
			time.Sleep(time.Millisecond)
		}
	}
	return nil
}

// startWaiter subscribes to an epoch through Session.Wait until the
// session closes or the pass stops.
func (fr *fleetRun) startWaiter(ep *epoch) {
	fr.waitWG.Add(1)
	go func() {
		defer fr.waitWG.Done()
		seq := ep.sess.Seq()
		for {
			snap, ok := ep.sess.Wait(seq, 250*time.Millisecond)
			if !ok {
				select {
				case <-fr.stop:
					return
				default:
				}
				if _, live := fr.mgr.Get(ep.key); !live {
					return
				}
				continue
			}
			now := time.Now()
			seq = snap.Seq
			u := snap.Update
			a := arrival{seq: snap.Seq, j: int(math.Round(u.Time * fr.shape.rate)), recv: now, err: u.Err}
			a.est, a.ok = estimateOf(u.Result)
			ep.got = append(ep.got, a)
			if int64(a.j) > ep.lastJ.Load() {
				ep.lastJ.Store(int64(a.j))
			}
		}
	}()
}

// scopeEnd is the end of the due-time window in which an epoch's updates
// are expected: the end of the live interval, or — for a churned epoch —
// one lateness bound before its close, so every expected update had its
// full allowance before the session went away.
func (fr *fleetRun) scopeEnd(ep *epoch) time.Time {
	if !ep.closedAt.IsZero() {
		if e := ep.closedAt.Add(-fr.late); e.Before(fr.end) {
			return e
		}
	}
	return fr.end
}

// awaitStragglers waits (at most one lateness bound past the end) until
// every open epoch has delivered its last expected update.
func (fr *fleetRun) awaitStragglers() {
	deadline := fr.end.Add(fr.late + 50*time.Millisecond)
	type want struct {
		ep *epoch
		j  int
	}
	var wants []want
	for _, ep := range fr.reg.all() {
		if !ep.closedAt.IsZero() {
			continue
		}
		if ts := fr.sc.triggers(ep, fr.end); len(ts) > 0 {
			wants = append(wants, want{ep, ts[len(ts)-1]})
		}
	}
	for time.Now().Before(deadline) {
		pending := 0
		for _, w := range wants {
			if w.ep.lastJ.Load() < int64(w.j) {
				pending++
			}
		}
		if pending == 0 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// account matches every epoch's arrivals against its expected updates and
// fills the latency, failure and accuracy figures. An update is expected
// at every stride of the nominal schedule whose due time falls in scope.
// A session that shed packets (see fleet.packet_loss_frac) completes each
// later stride a few stream indices late; such an update still answers
// the stride it belongs to, and its latency runs from the due time of the
// packet that actually completed it.
func (fr *fleetRun) account(res *result) {
	var (
		lat   dist // ms
		acc   accuracy
		stats struct{ missing, late, errs int }
	)
	for _, ep := range fr.reg.all() {
		scope := fr.scopeEnd(ep)
		byStride := make(map[int]arrival, len(ep.got))
		for _, a := range ep.got {
			if a.ok && !a.est.finite() {
				res.problem("session %s: update at t=%.4f carries a non-finite rate %v", ep.key, float64(a.j)/fr.sc.rate, a.est)
			}
			if j := fr.sc.nominal(ep.start, a.j); j >= 0 {
				if _, dup := byStride[j]; !dup {
					byStride[j] = a
				}
			}
		}
		truth := ep.plan.scene.truth
		for _, j := range fr.sc.triggers(ep, scope) {
			res.attempted++
			a, ok := byStride[j]
			if !ok {
				stats.missing++
				continue
			}
			due := fr.sc.due(ep.plan, a.j)
			l := a.recv.Sub(due)
			lat.addDur(l, time.Millisecond)
			switch {
			case l > fr.late:
				stats.late++
			case a.err != nil:
				stats.errs++
			case a.ok:
				acc.score(a.est, truth)
			}
		}
	}
	res.failed += stats.missing + stats.late + stats.errs
	setLatency(res, &lat)
	res.infof("update failures: %d missing, %d late (> %v), %d with Err",
		stats.missing, stats.late, fr.late, stats.errs)
	acc.report(res, fr.shape.breathBound)
}

// storeLayers fills the store write-path metrics from the timing
// decorator and the store's own statistics.
func (fr *fleetRun) storeLayers(res *result, t *timedRecorder, blocks0 int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	res.setDist("store.append_packet_us_p50", &t.appendPacket, 0.5, "us")
	res.setDist("store.append_packet_us_p99", &t.appendPacket, 0.99, "us")
	res.setDist("store.append_update_us_p99", &t.appendUpdate, 0.99, "us")
	res.setDist("store.open_session_ms_p99", &t.open, 0.99, "ms")
	res.setDist("store.close_session_ms_p99", &t.shut, 0.99, "ms")
	st := fr.st.Stats()
	// No retention budget is set, so every block sealed during the live
	// interval is still held.
	res.set("store.seals", float64(st.Blocks-blocks0), "count", 0)
	// Sealed bytes over sealed packets: everything appended minus what
	// still sits in open sessions' tail buffers.
	buffered := 0
	for _, si := range fr.st.Sessions() {
		buffered += si.Packets
	}
	if sealed := int(t.packets.Load()) - buffered; sealed > 0 {
		res.set("store.bytes_per_packet", float64(st.Bytes)/float64(sealed), "B", sealed)
	}
}

// churnSchedule draws the close-and-reopen events from the seed and hands
// each to the generator that owns the session.
func churnSchedule(gens []*generator, opts runOpts, shape fleetShape, rng *rand.Rand) {
	n := int(math.Round(shape.churnPerSec * float64(shape.sessions) * opts.seconds))
	for i := 0; i < n; i++ {
		at := (float64(i) + rng.Float64()) / float64(n) * opts.seconds
		idx := rng.Intn(shape.sessions)
		g := gens[idx%len(gens)]
		g.churns = append(g.churns, churnEvent{at: at, idx: idx})
	}
	for _, g := range gens {
		sort.Slice(g.churns, func(a, b int) bool { return g.churns[a].at < g.churns[b].at })
	}
}

type churnEvent struct {
	at  float64 // seconds after T0
	idx int     // session index
}
