// Package fleet multiplexes many concurrent Monitor sessions inside one
// process — the phasebeatd daemon's engine room. The ROADMAP's north star
// is millions of monitored users; one Monitor per process does not get
// there, so the Manager shards sessions by key hash across N shards, each
// shard a goroutine owning its session map, its ingest mailbox, and one
// shared arena.Arena that every session's window storage is carved from.
// Session churn (open/ingest/close at daemon scale) then recycles window
// slabs through the shard arena instead of growing the heap per session.
//
// Backpressure has two stages, by design:
//
//   - Between producers and a shard: the mailbox handoff blocks, so a
//     flood aimed at one shard slows its own producers (typically network
//     connections) instead of growing a queue without bound.
//   - Between a shard and a session: every fleet Monitor runs with
//     DropOnBacklog forced on, so one slow session sheds its own oldest
//     packets (counted in its Health) and can never stall the shard
//     goroutine — tenant isolation rides on the Monitor's existing
//     shedding machinery rather than new queueing.
//
// Aggregate accounting (live sessions plus everything closed so far) is
// surfaced through internal/metrics under fleet.* and fleet.shard.*;
// per-session numbers stay on the session itself (Session.Health, and the
// Health that rides on every Update) so metric cardinality does not scale
// with the session count.
package fleet

import (
	"errors"
	"fmt"
	"log/slog"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"phasebeat/internal/arena"
	"phasebeat/internal/core"
	"phasebeat/internal/metrics"
	"phasebeat/internal/otrace"
	"phasebeat/internal/trace"
)

var (
	// ErrClosed reports an operation on a closed Manager.
	ErrClosed = errors.New("fleet: manager closed")
	// ErrDuplicateSession reports an Open with a key that is already live.
	ErrDuplicateSession = errors.New("fleet: session already open")
	// ErrUnknownSession reports an operation on a key with no session.
	ErrUnknownSession = errors.New("fleet: unknown session")
)

// Config configures a Manager.
type Config struct {
	// Shards is the shard count (default: GOMAXPROCS). Each shard runs
	// one goroutine and owns one arena shared by its sessions.
	Shards int
	// MailboxDepth is the per-shard ingest queue capacity in packets
	// (default 256). A full mailbox blocks producers — that is the
	// shard-level backpressure stage.
	MailboxDepth int
	// SessionBuffer is each session Monitor's IngestBuffer (default 16):
	// the headroom a session gets before it starts shedding its own
	// oldest packets.
	SessionBuffer int
	// Monitor is the template session configuration. The zero value means
	// core.DefaultMonitorConfig. Per-session parameters from SessionConfig
	// override it; DropOnBacklog, IngestBuffer and Arena are always owned
	// by the fleet, and Metrics is cleared (see Open). A template
	// Pipeline.Observer or Sink is shared by every session.
	Monitor core.MonitorConfig
	// Metrics, when non-nil, receives the fleet gauges: fleet.sessions,
	// fleet.sessions.opened/closed, fleet.ingested, fleet.unrouted,
	// fleet.updates, aggregate health counters, and per-shard
	// fleet.shard.<i>.{sessions,arena.allocs,arena.reuses,arena.bytes}.
	Metrics *metrics.Registry
	// Logger, when non-nil, receives session lifecycle events at Debug.
	Logger *slog.Logger
	// Recorder, when non-nil, receives a tee of every session's lifecycle,
	// routed packets, and published updates — the hook phasebeatd uses to
	// archive the fleet into the tiered trace store. Recording is
	// best-effort: a Recorder error never fails the monitored stream, it
	// is counted in fleet.record.errors and logged at Warn.
	Recorder Recorder
	// Tracer, when non-nil, enables end-to-end latency spans: every
	// ingested packet carries a trace context from the frame boundary
	// (or the Ingest call, for in-process feeders) through the shard
	// mailbox and the session Monitor, and the span is closed when the
	// update it completed is published — feeding the fleet.span.*
	// histograms, the SLO burn tracker, and the sampled-span ring. Nil
	// (the default) reads no clock anywhere on the ingest path.
	Tracer *otrace.Tracer
}

// Recorder archives a fleet's traffic. Implementations must be safe for
// concurrent use: packets arrive on shard goroutines, updates on session
// drain goroutines, lifecycle calls on whatever goroutine drives the
// Manager. The interface deliberately mirrors the tiered store's session
// API without importing it, so the store package's own tests can drive a
// fleet (an import in the other direction).
type Recorder interface {
	// OpenSession is called with the session's EFFECTIVE configuration —
	// the Manager template with the open request's overrides applied —
	// so a recorder replay can rebuild the exact Monitor the session ran
	// with.
	OpenSession(key string, sc SessionConfig) error
	// AppendPacket receives every packet routed into the session's
	// Monitor (before any backlog shedding). The recorder may retain the
	// packet; fleet packets are never mutated after ingest.
	AppendPacket(key string, p trace.Packet) error
	// AppendUpdate receives every update published to subscribers.
	AppendUpdate(key string, u core.Update) error
	// CloseSession is called once the session's Monitor has fully
	// drained, after its final AppendUpdate.
	CloseSession(key string) error
}

// SessionConfig carries the per-session stream parameters from an open
// request. Zero fields inherit the Manager's template.
type SessionConfig struct {
	// SampleRate is the session's packet rate in Hz. Setting it also
	// re-derives the template pipeline's rate-scaled windows (see
	// core.Config.ForRate); every other pipeline setting is kept.
	SampleRate float64
	// NumAntennas and NumSubcarriers describe the session's packets.
	NumAntennas, NumSubcarriers int
	// WindowSeconds and UpdateEverySeconds set the analysis window and
	// stride.
	WindowSeconds, UpdateEverySeconds float64
	// Persons is the monitored person count.
	Persons int
}

// Snapshot is a session's most recent update plus its delivery sequence
// number, the long-poll cursor: a subscriber passes the last Seq it saw
// and wakes when a newer one exists.
type Snapshot struct {
	Seq    uint64
	Update core.Update
}

// Manager is the sharded session fleet. All methods are safe for
// concurrent use.
type Manager struct {
	cfg    Config
	shards []*shard

	stop      chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup

	opened, closed atomic.Uint64
	recordErrors   atomic.Uint64
}

// recordErr counts and logs a best-effort recording failure.
func (m *Manager) recordErr(op, key string, err error) {
	if err == nil {
		return
	}
	m.recordErrors.Add(1)
	if m.cfg.Logger != nil {
		m.cfg.Logger.Warn("recorder error", "op", op, "key", key, "err", err)
	}
}

// New validates cfg, builds the shards, and starts their goroutines.
func New(cfg Config) (*Manager, error) {
	if cfg.Shards == 0 {
		cfg.Shards = runtime.GOMAXPROCS(0)
	}
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("fleet: shard count %d < 1", cfg.Shards)
	}
	if cfg.MailboxDepth == 0 {
		cfg.MailboxDepth = 256
	}
	if cfg.MailboxDepth < 1 {
		return nil, fmt.Errorf("fleet: mailbox depth %d < 1", cfg.MailboxDepth)
	}
	if cfg.SessionBuffer == 0 {
		cfg.SessionBuffer = 16
	}
	if isZeroMonitorConfig(cfg.Monitor) {
		cfg.Monitor = core.DefaultMonitorConfig()
	}
	m := &Manager{
		cfg:    cfg,
		shards: make([]*shard, cfg.Shards),
		stop:   make(chan struct{}),
	}
	for i := range m.shards {
		sh := &shard{
			id:       i,
			mgr:      m,
			arena:    arena.New(),
			sessions: make(map[string]*Session),
			mailbox:  make(chan ingestMsg, cfg.MailboxDepth),
			stop:     m.stop,
		}
		m.shards[i] = sh
		m.wg.Add(1)
		go func() {
			defer m.wg.Done()
			sh.run()
		}()
	}
	m.register(cfg.Metrics)
	return m, nil
}

// isZeroMonitorConfig reports whether the template was left entirely
// unset (MonitorConfig holds func-typed fields, so == is unavailable).
func isZeroMonitorConfig(c core.MonitorConfig) bool {
	return c.SampleRate == 0 && c.WindowSeconds == 0 && c.NumAntennas == 0 &&
		c.NumSubcarriers == 0 && c.UpdateEverySeconds == 0
}

// shardFor hashes the session key (FNV-1a) onto a shard.
func (m *Manager) shardFor(key string) *shard {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return m.shards[h%uint64(len(m.shards))]
}

// Open creates a session for key and starts its Monitor. The session's
// configuration is the Manager template overridden by sc's non-zero
// fields; DropOnBacklog is forced on (tenant isolation — a slow session
// sheds its own packets, never the shard), IngestBuffer comes from
// Config.SessionBuffer, and window storage is carved from the owning
// shard's arena.
func (m *Manager) Open(key string, sc SessionConfig) (*Session, error) {
	if key == "" {
		return nil, fmt.Errorf("fleet: empty session key")
	}
	sh := m.shardFor(key)
	mc := m.cfg.Monitor
	if sc.SampleRate > 0 {
		mc.SampleRate = sc.SampleRate
		mc.Pipeline = mc.Pipeline.ForRate(sc.SampleRate)
	}
	if sc.NumAntennas > 0 {
		mc.NumAntennas = sc.NumAntennas
	}
	if sc.NumSubcarriers > 0 {
		mc.NumSubcarriers = sc.NumSubcarriers
	}
	if sc.WindowSeconds > 0 {
		mc.WindowSeconds = sc.WindowSeconds
	}
	if sc.UpdateEverySeconds > 0 {
		mc.UpdateEverySeconds = sc.UpdateEverySeconds
	}
	if sc.Persons > 0 {
		mc.Persons = sc.Persons
	}
	mc.DropOnBacklog = true
	mc.IngestBuffer = m.cfg.SessionBuffer
	mc.Arena = sh.arena
	mc.Metrics = nil
	mc.Tracer = m.cfg.Tracer

	sh.mu.Lock()
	// The stop check shares the shard lock with Close's final sweep, so
	// an Open racing Close either lands before the sweep (and is swept)
	// or observes the closed Manager here — never a leaked session.
	select {
	case <-m.stop:
		sh.mu.Unlock()
		return nil, ErrClosed
	default:
	}
	if _, dup := sh.sessions[key]; dup {
		sh.mu.Unlock()
		return nil, fmt.Errorf("%w: %q", ErrDuplicateSession, key)
	}
	mon, err := core.NewMonitor(mc)
	if err != nil {
		sh.mu.Unlock()
		return nil, fmt.Errorf("fleet: open %q: %w", key, err)
	}
	s := &Session{
		key:     key,
		mon:     mon,
		sh:      sh,
		wake:    make(chan struct{}),
		drained: make(chan struct{}),
	}
	sh.sessions[key] = s
	sh.mu.Unlock()
	if rec := m.cfg.Recorder; rec != nil {
		// The recorder sees the effective configuration, not the raw
		// request, so replaying the archive rebuilds this exact Monitor.
		m.recordErr("open", key, rec.OpenSession(key, SessionConfig{
			SampleRate:         mc.SampleRate,
			NumAntennas:        mc.NumAntennas,
			NumSubcarriers:     mc.NumSubcarriers,
			WindowSeconds:      mc.WindowSeconds,
			UpdateEverySeconds: mc.UpdateEverySeconds,
			Persons:            mc.Persons,
		}))
	}
	go s.drain()
	m.opened.Add(1)
	if m.cfg.Logger != nil {
		m.cfg.Logger.Debug("session opened", "key", key, "shard", sh.id)
	}
	return s, nil
}

// Get returns the live session for key.
func (m *Manager) Get(key string) (*Session, bool) {
	sh := m.shardFor(key)
	sh.mu.RLock()
	s, ok := sh.sessions[key]
	sh.mu.RUnlock()
	return s, ok
}

// Ingest routes one packet to key's session via the owning shard's
// mailbox. It blocks while the mailbox is full (shard-level backpressure)
// and returns ErrClosed once the Manager closes. A packet for a key with
// no live session is counted in fleet.unrouted and discarded by the
// shard; Ingest itself does not check, so the hot path takes no lock.
func (m *Manager) Ingest(key string, p trace.Packet) error {
	// In-process feeders get their span opened here — the Ingest call IS
	// their frame boundary. With no tracer, Start returns the zero Ctx
	// and the whole path stays clock-free.
	return m.IngestCtx(key, p, m.cfg.Tracer.Start(0))
}

// IngestCtx is Ingest with a caller-opened latency trace context — the
// network server opens the span before frame decode so the decode work
// lands in the frame segment, then routes through here. The mailbox
// handoff boundary is stamped just before the send, so mailbox dwell is
// measured from enqueue, not from span start.
func (m *Manager) IngestCtx(key string, p trace.Packet, ot otrace.Ctx) error {
	// Stop-priority pre-check: after Close returns, Ingest refuses
	// deterministically instead of racing a mailbox that still has room
	// (the same contract Monitor.Ingest pins for its own queue).
	select {
	case <-m.stop:
		return ErrClosed
	default:
	}
	if ot.Live() {
		ot.MailboxEnq = otrace.Now()
	}
	sh := m.shardFor(key)
	select {
	case sh.mailbox <- ingestMsg{key: key, pkt: p, ot: ot}:
		return nil
	case <-m.stop:
		return ErrClosed
	}
}

// CloseSession stops key's session, waits for its worker to exit (its
// window slabs return to the shard arena), and returns its final Health.
// The final health is accumulated into the shard so aggregate fleet
// counters stay monotonic across churn.
func (m *Manager) CloseSession(key string) (core.Health, error) {
	sh := m.shardFor(key)
	sh.mu.Lock()
	s, ok := sh.sessions[key]
	if ok {
		delete(sh.sessions, key)
	}
	sh.mu.Unlock()
	if !ok {
		return core.Health{}, fmt.Errorf("%w: %q", ErrUnknownSession, key)
	}
	h := s.close()
	sh.mu.Lock()
	sh.closedHealth = addHealth(sh.closedHealth, h)
	sh.closedUpdates += s.Seq()
	sh.mu.Unlock()
	if rec := m.cfg.Recorder; rec != nil {
		// After s.close() the drain pump has delivered its final
		// AppendUpdate, so the recorder session seals complete.
		m.recordErr("close", key, rec.CloseSession(key))
	}
	m.closed.Add(1)
	if m.cfg.Logger != nil {
		m.cfg.Logger.Debug("session closed", "key", key, "shard", sh.id)
	}
	return h, nil
}

// Close stops the shards, then closes every remaining session and waits
// for their workers. Safe to call multiple times.
func (m *Manager) Close() {
	m.closeOnce.Do(func() {
		close(m.stop)
		m.wg.Wait()
		for _, sh := range m.shards {
			sh.mu.Lock()
			live := make([]*Session, 0, len(sh.sessions))
			for key, s := range sh.sessions {
				live = append(live, s)
				delete(sh.sessions, key)
			}
			sh.mu.Unlock()
			for _, s := range live {
				h := s.close()
				sh.mu.Lock()
				sh.closedHealth = addHealth(sh.closedHealth, h)
				sh.closedUpdates += s.Seq()
				sh.mu.Unlock()
				if rec := m.cfg.Recorder; rec != nil {
					m.recordErr("close", s.key, rec.CloseSession(s.key))
				}
				m.closed.Add(1)
			}
		}
	})
}

// SessionCount returns the number of live sessions.
func (m *Manager) SessionCount() int {
	n := 0
	for _, sh := range m.shards {
		sh.mu.RLock()
		n += len(sh.sessions)
		sh.mu.RUnlock()
	}
	return n
}

// Health returns the fleet-wide aggregate: every live session's current
// Health plus the accumulated Health of every session closed so far.
func (m *Manager) Health() core.Health {
	var total core.Health
	for _, sh := range m.shards {
		sh.mu.RLock()
		total = addHealth(total, sh.closedHealth)
		for _, s := range sh.sessions {
			total = addHealth(total, s.mon.Health())
		}
		sh.mu.RUnlock()
	}
	return total
}

// Updates returns the total updates delivered across all sessions, live
// and closed.
func (m *Manager) Updates() uint64 {
	var n uint64
	for _, sh := range m.shards {
		sh.mu.RLock()
		n += sh.closedUpdates
		for _, s := range sh.sessions {
			n += s.Seq()
		}
		sh.mu.RUnlock()
	}
	return n
}

// ArenaStats sums Arena.Stats over the shards.
func (m *Manager) ArenaStats() arena.Stats {
	var total arena.Stats
	for _, sh := range m.shards {
		st := sh.arena.Stats()
		total.Allocs += st.Allocs
		total.Reuses += st.Reuses
		total.Bytes += st.Bytes
	}
	return total
}

// register wires the fleet gauges into reg (nil is a no-op).
func (m *Manager) register(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	reg.RegisterFunc("fleet.sessions", func() float64 { return float64(m.SessionCount()) })
	reg.RegisterFunc("fleet.sessions.opened", func() float64 { return float64(m.opened.Load()) })
	reg.RegisterFunc("fleet.sessions.closed", func() float64 { return float64(m.closed.Load()) })
	reg.RegisterFunc("fleet.updates", func() float64 { return float64(m.Updates()) })
	reg.RegisterFunc("fleet.health.dropped", func() float64 { return float64(m.Health().PacketsDropped) })
	reg.RegisterFunc("fleet.health.replaced", func() float64 { return float64(m.Health().UpdatesReplaced) })
	reg.RegisterFunc("fleet.health.quarantined", func() float64 { return float64(m.Health().Quarantined()) })
	var ingested, unrouted func() float64
	ingested = func() float64 {
		var n uint64
		for _, sh := range m.shards {
			n += sh.ingested.Load()
		}
		return float64(n)
	}
	unrouted = func() float64 {
		var n uint64
		for _, sh := range m.shards {
			n += sh.unrouted.Load()
		}
		return float64(n)
	}
	reg.RegisterFunc("fleet.ingested", ingested)
	reg.RegisterFunc("fleet.unrouted", unrouted)
	reg.RegisterFunc("fleet.record.errors", func() float64 { return float64(m.recordErrors.Load()) })
	for _, sh := range m.shards {
		sh := sh
		prefix := fmt.Sprintf("fleet.shard.%d", sh.id)
		reg.RegisterFunc(prefix+".sessions", func() float64 {
			sh.mu.RLock()
			n := len(sh.sessions)
			sh.mu.RUnlock()
			return float64(n)
		})
		reg.RegisterFunc(prefix+".arena.allocs", func() float64 { return float64(sh.arena.Stats().Allocs) })
		reg.RegisterFunc(prefix+".arena.reuses", func() float64 { return float64(sh.arena.Stats().Reuses) })
		reg.RegisterFunc(prefix+".arena.bytes", func() float64 { return float64(sh.arena.Stats().Bytes) })
	}
}

// addHealth sums two cumulative Health summaries field-wise.
func addHealth(a, b core.Health) core.Health {
	a.Accepted += b.Accepted
	a.QuarantinedMalformed += b.QuarantinedMalformed
	a.QuarantinedNonFinite += b.QuarantinedNonFinite
	a.QuarantinedNonMonotonic += b.QuarantinedNonMonotonic
	a.GapResets += b.GapResets
	a.PacketsDropped += b.PacketsDropped
	a.UpdatesReplaced += b.UpdatesReplaced
	a.ObserverPanics += b.ObserverPanics
	return a
}

// ingestMsg is one routed packet in a shard mailbox, with its latency
// trace context (zero when untraced).
type ingestMsg struct {
	key string
	pkt trace.Packet
	ot  otrace.Ctx
}

// shard owns one slice of the session space: a goroutine draining the
// mailbox, the session map, and the arena its sessions share.
type shard struct {
	id    int
	mgr   *Manager
	arena *arena.Arena

	mailbox chan ingestMsg
	stop    chan struct{}

	mu            sync.RWMutex
	sessions      map[string]*Session
	closedHealth  core.Health
	closedUpdates uint64

	ingested atomic.Uint64
	unrouted atomic.Uint64
}

// run is the shard goroutine: route mailbox packets into session
// Monitors. Session Monitors run DropOnBacklog, so Ingest below never
// blocks and one slow session cannot stall the shard.
func (sh *shard) run() {
	for {
		select {
		case <-sh.stop:
			return
		case msg := <-sh.mailbox:
			sh.mu.RLock()
			s := sh.sessions[msg.key]
			sh.mu.RUnlock()
			if s == nil {
				sh.unrouted.Add(1)
				continue
			}
			// The mailbox→Monitor boundary: dwell in the shard mailbox
			// ends here, dwell in the session's ingest queue begins.
			if msg.ot.Live() {
				msg.ot.QueueEnq = otrace.Now()
			}
			s.mon.IngestCtx(msg.pkt, msg.ot)
			sh.ingested.Add(1)
			if rec := sh.mgr.cfg.Recorder; rec != nil {
				sh.mgr.recordErr("append", msg.key, rec.AppendPacket(msg.key, msg.pkt))
			}
		}
	}
}

// Session is one monitored CSI stream inside the fleet. Its Monitor's
// updates are drained by a dedicated goroutine into a latest-value
// Snapshot with a sequence number, which is what the long-poll
// subscription API reads — at daemon scale nobody keeps per-session
// delivery channels alive, sessions publish and subscribers poll.
type Session struct {
	key string
	mon *core.Monitor
	sh  *shard

	mu     sync.Mutex
	seq    uint64
	latest core.Update
	wake   chan struct{}
	// span is the retained latency span of the update at spanSeq (nil
	// when that update's span was not retained, or tracing is off) —
	// Wait marks its long-poll pickup dwell on delivery.
	span    *otrace.SpanRecord
	spanSeq uint64

	drained chan struct{}
}

// Key returns the session key.
func (s *Session) Key() string { return s.key }

// Health returns the session Monitor's current Health.
func (s *Session) Health() core.Health { return s.mon.Health() }

// Seq returns the number of updates published so far.
func (s *Session) Seq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seq
}

// Latest returns the most recent Snapshot; ok is false while the session
// has not produced an update yet.
func (s *Session) Latest() (Snapshot, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.seq == 0 {
		return Snapshot{}, false
	}
	return Snapshot{Seq: s.seq, Update: s.latest}, true
}

// Wait long-polls for a Snapshot newer than since. It returns as soon as
// one exists (possibly immediately), or (Snapshot{}, false) when timeout
// elapses or the session closes first.
func (s *Session) Wait(since uint64, timeout time.Duration) (Snapshot, bool) {
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for {
		s.mu.Lock()
		if s.seq > since {
			snap := Snapshot{Seq: s.seq, Update: s.latest}
			span := s.span
			if span != nil && s.spanSeq != s.seq {
				span = nil
			}
			s.mu.Unlock()
			if span != nil {
				// First pickup of a retained span: record how long the
				// published update sat before a subscriber saw it.
				s.sh.mgr.cfg.Tracer.MarkPickup(span, otrace.Now())
			}
			return snap, true
		}
		wake := s.wake
		s.mu.Unlock()
		select {
		case <-wake:
		case <-deadline.C:
			return Snapshot{}, false
		case <-s.drained:
			return Snapshot{}, false
		}
	}
}

// drain is the session's delivery pump: it moves every Monitor update
// into the latest-value snapshot and broadcasts to waiters by closing the
// wake channel.
func (s *Session) drain() {
	defer close(s.drained)
	tracer := s.sh.mgr.cfg.Tracer
	for u := range s.mon.Updates() {
		// The publish timestamp is read before the commit below: the
		// moment the snapshot becomes visible is when the update's data
		// stops aging for subscribers, and the deliver segment must not
		// absorb the recorder tee that follows.
		var publish int64
		if u.Trace.Live() {
			publish = otrace.Now()
		}
		s.mu.Lock()
		s.seq++
		seq := s.seq
		s.latest = u
		close(s.wake)
		s.wake = make(chan struct{})
		s.mu.Unlock()
		var span *otrace.SpanRecord
		if publish != 0 {
			span = tracer.FinishUpdate(s.key, seq, &u.Trace, publish)
			if span != nil {
				s.mu.Lock()
				s.span, s.spanSeq = span, seq
				s.mu.Unlock()
			}
		}
		if rec := s.sh.mgr.cfg.Recorder; rec != nil {
			// Time the archive append only for retained spans — the
			// untraced path keeps its no-clock-reads contract.
			var t0 time.Time
			if span != nil {
				t0 = time.Now()
			}
			err := rec.AppendUpdate(s.key, u)
			if span != nil {
				tracer.MarkStore(span, time.Since(t0))
			}
			s.sh.mgr.recordErr("update", s.key, err)
		}
	}
}

// close stops the Monitor, waits for the drain pump to finish, and
// returns the final Health.
func (s *Session) close() core.Health {
	s.mon.Close()
	<-s.drained
	return s.mon.Health()
}
