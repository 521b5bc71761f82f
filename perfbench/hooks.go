package main

import (
	"net"
	"sync"
	"sync/atomic"
	"time"

	"phasebeat/internal/core"
	"phasebeat/internal/fleet"
	"phasebeat/internal/store"
	"phasebeat/internal/trace"
)

// storeRecorder adapts the tiered trace store to the fleet's Recorder hook
// the same way phasebeatd does: the session's effective configuration
// becomes the store metadata.
type storeRecorder struct{ st *store.Store }

func (r storeRecorder) OpenSession(key string, sc fleet.SessionConfig) error {
	return r.st.OpenSession(key, store.Meta{
		SampleRate:     sc.SampleRate,
		NumAntennas:    sc.NumAntennas,
		NumSubcarriers: sc.NumSubcarriers,
		WindowSeconds:  sc.WindowSeconds,
		StrideSeconds:  sc.UpdateEverySeconds,
		Persons:        sc.Persons,
	})
}

func (r storeRecorder) AppendPacket(key string, p trace.Packet) error {
	return r.st.AppendPacket(key, p)
}

func (r storeRecorder) AppendUpdate(key string, u core.Update) error {
	return r.st.AppendUpdate(key, u)
}

func (r storeRecorder) CloseSession(key string) error { return r.st.CloseSession(key) }

// timedRecorder is a fleet.Recorder decorator that times every call into
// the recorder it wraps — the store's write path, seen from the fleet.
// Packets arrive on shard goroutines and updates on session drain pumps,
// so the samples are guarded by one mutex.
type timedRecorder struct {
	next fleet.Recorder

	packets atomic.Uint64

	mu                                     sync.Mutex
	appendPacket, appendUpdate, open, shut dist // µs, µs, ms, ms
}

func (t *timedRecorder) OpenSession(key string, sc fleet.SessionConfig) error {
	t0 := time.Now()
	err := t.next.OpenSession(key, sc)
	t.record(&t.open, time.Since(t0), time.Millisecond)
	return err
}

func (t *timedRecorder) AppendPacket(key string, p trace.Packet) error {
	t0 := time.Now()
	err := t.next.AppendPacket(key, p)
	t.record(&t.appendPacket, time.Since(t0), time.Microsecond)
	t.packets.Add(1)
	return err
}

func (t *timedRecorder) AppendUpdate(key string, u core.Update) error {
	t0 := time.Now()
	err := t.next.AppendUpdate(key, u)
	t.record(&t.appendUpdate, time.Since(t0), time.Microsecond)
	return err
}

func (t *timedRecorder) CloseSession(key string) error {
	t0 := time.Now()
	err := t.next.CloseSession(key)
	t.record(&t.shut, time.Since(t0), time.Millisecond)
	return err
}

// reset drops the timings recorded so far (setup's opens and prefill);
// the packet count, which pairs with the store's byte total, is kept.
func (t *timedRecorder) reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.appendPacket, t.appendUpdate, t.open, t.shut = dist{}, dist{}, dist{}, dist{}
}

func (t *timedRecorder) record(d *dist, took, unit time.Duration) {
	t.mu.Lock()
	d.addDur(took, unit)
	t.mu.Unlock()
}

// stageTimer is the core.StageObserver the traced passes install. With
// ownClock (the batch Processor, one pipeline goroutine) it times each
// stage with its own clock between OnStageStart and OnStageEnd. Fleet
// sessions run strides on many goroutines at once and the hooks carry no
// session identity to pair a start with its end, so there it records the
// duration the stage runner measured (StageStats.Duration).
type stageTimer struct {
	ownClock bool

	mu      sync.Mutex
	started time.Time
	stages  map[string]*dist // ms
	total   time.Duration
}

func newStageTimer(ownClock bool) *stageTimer {
	st := &stageTimer{ownClock: ownClock, stages: make(map[string]*dist, len(stageNames))}
	for _, s := range stageNames {
		st.stages[s] = &dist{}
	}
	return st
}

// reset drops everything recorded so far (the fleet's warm-up strides
// run during setup).
func (t *stageTimer) reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, d := range t.stages {
		*d = dist{}
	}
	t.total = 0
}

func (t *stageTimer) OnStageStart(string) {
	if t.ownClock {
		t.started = time.Now()
	}
}

func (t *stageTimer) OnStageEnd(s core.StageStats) {
	took := s.Duration
	if t.ownClock {
		took = time.Since(t.started)
	}
	t.mu.Lock()
	d, ok := t.stages[s.Stage]
	if !ok {
		d = &dist{}
		t.stages[s.Stage] = d
	}
	d.addDur(took, time.Millisecond)
	t.total += took
	t.mu.Unlock()
}

// countingListener counts the bytes the server reads off every accepted
// connection: the wire cost of the frame protocol, measured at the socket.
type countingListener struct {
	net.Listener
	read atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, read: &l.read}, nil
}

type countingConn struct {
	net.Conn
	read *atomic.Int64
}

func (c *countingConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.read.Add(int64(n))
	return n, err
}
