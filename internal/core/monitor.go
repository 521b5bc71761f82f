package core

import (
	"fmt"
	"log/slog"
	"runtime"
	"sync"
	"time"
	"unsafe"

	"phasebeat/internal/arena"
	"phasebeat/internal/dsp"
	"phasebeat/internal/metrics"
	"phasebeat/internal/otrace"
	"phasebeat/internal/trace"
)

// Update is one realtime estimate emitted by a Monitor.
type Update struct {
	// Time is the trace timestamp (seconds) of the newest packet that
	// contributed to the estimate.
	Time float64
	// Result is the pipeline output for the current window.
	Result *Result
	// Err is non-nil when the window could not be processed (for example
	// no stationary segment); Result may still carry the environment
	// detection in that case.
	Err error
	// Health is the cumulative ingest-health summary at the time this
	// update was produced: quarantine counts by cause, gap resets, and
	// backlog shedding. Compare with the previous update's Health (see
	// Health.Sub) to decide whether the estimate was computed from clean,
	// continuous data.
	Health Health
	// Trace is the latency span context of the packet that completed
	// this stride, with the ingest-queue and compute timestamps stamped
	// (and the stride's per-stage timings attached when a Tracer is
	// wired). Zero when the packet was not traced; the delivery layer
	// (fleet.Session) closes the span at publish time.
	Trace otrace.Ctx
}

// MonitorConfig configures a streaming Monitor.
type MonitorConfig struct {
	// Pipeline is the processing configuration.
	Pipeline Config
	// Persons is the monitored person count.
	Persons int
	// SampleRate is the incoming packet rate in Hz.
	SampleRate float64
	// NumAntennas and NumSubcarriers describe the incoming packets.
	NumAntennas, NumSubcarriers int
	// WindowSeconds is the analysis window length; estimates use the most
	// recent window (the paper uses about a minute of data). Every stride
	// runs the batch pipeline's estimators on that window. NewMonitor
	// refuses a window of more than 2²⁴ samples × NumSubcarriers.
	WindowSeconds float64
	// UpdateEverySeconds is the stride between successive estimates.
	// NewMonitor refuses a stride of more than 2²⁴ samples, and a stride
	// whose gcd with the window is so small that the exact block sums
	// would take the window storage past its bound (see windowBytes).
	UpdateEverySeconds float64
	// IngestBuffer is the ingest queue capacity in packets (default 1).
	// Give drop-on-backlog monitors some headroom here so momentary
	// processing spikes drop less.
	IngestBuffer int
	// DropOnBacklog makes Ingest non-blocking: when the ingest queue is
	// full, the oldest queued packet is discarded to make room and counted
	// in Health.PacketsDropped. Updates are likewise replaced rather than
	// awaited when the consumer lags (counted in Health.UpdatesReplaced).
	// Off by default (lossless, blocking).
	DropOnBacklog bool
	// Metrics, when non-nil, receives the monitor's runtime metrics, fed
	// from each delivered stride's StrideRecord: per-stage latency
	// histograms and error counters, a stride-latency histogram and an
	// updates counter, plus callback gauges over the quarantine/health
	// counters. Nil (the default) disables metrics with zero overhead —
	// no record is built and no clock is read.
	Metrics *metrics.Registry
	// Tracer, when non-nil, enables end-to-end latency spans: packets
	// submitted through IngestCtx carry their trace context through the
	// ingest queue, the worker stamps the dequeue and compute-end
	// timestamps and attaches per-stage timings, and the context rides
	// out on Update.Trace for the delivery layer to close. Nil (the
	// default) reads no clock and allocates nothing — the same
	// zero-overhead-when-disabled contract as Metrics.
	Tracer *otrace.Tracer
	// Logger, when non-nil, receives structured events from the worker:
	// gap resets and degraded strides at Warn, updates at Debug. Nil (the
	// default) is silent and adds no per-packet or per-stride work —
	// the zero-overhead-when-disabled contract of DESIGN §9 applies to
	// logging too.
	Logger *slog.Logger
	// Arena, when non-nil, is the allocator the monitor's columnar window
	// storage (the phase-difference ring and the smoothed matrix) is
	// carved from, and to which it returns on Close. Sharing one arena
	// across a fleet of monitors lets sessions recycle each other's
	// window slabs instead of growing the heap per session. Nil (the
	// default) allocates private, unpooled slabs.
	Arena *arena.Arena
}

// DefaultMonitorConfig returns a realtime configuration: one-minute
// windows, a new estimate every five seconds, paper defaults otherwise.
func DefaultMonitorConfig() MonitorConfig {
	return MonitorConfig{
		Pipeline:           DefaultConfig(),
		Persons:            1,
		SampleRate:         400,
		NumAntennas:        3,
		NumSubcarriers:     30,
		WindowSeconds:      60,
		UpdateEverySeconds: 5,
	}
}

// Monitor consumes a live CSI packet stream and emits periodic vital-sign
// estimates. Feed packets with Ingest; read estimates from Updates; call
// Close to stop the worker and release resources.
//
// The worker holds the window's phase differences in a ring buffer and
// its sin/cos and amplitude sums in exact per-block accumulators, so each
// stride reprocesses only the new tail plus a smoothing margin (see
// strideEngine) instead of the whole window.
type Monitor struct {
	cfg       MonitorConfig
	processor *Processor

	in       chan inPacket
	updates  chan Update
	stop     chan struct{}
	draining chan struct{}
	done     chan struct{}

	health    healthCounters
	metrics   monitorMetrics
	closeOnce sync.Once
	drainOnce sync.Once

	// lastHealth is the previous delivered update's Health, the base of
	// each stride's HealthDelta; touched only by the worker.
	lastHealth Health
}

// inPacket is the ingest-queue element: the packet plus its latency
// trace context (zero when untraced — the common case costs only the
// extra struct bytes in the channel buffer, no clock reads).
type inPacket struct {
	pkt trace.Packet
	ot  otrace.Ctx
}

// maxWindowCells bounds window samples × subcarriers, the length of the
// ring and of the smoothed matrix, and also the stride in samples. The
// window storage is allocated on the worker goroutine, after NewMonitor
// returns, so an unchecked size from a remote open frame would surface
// there as a makeslice panic that kills the whole daemon, or as a
// multi-gigabyte allocation. 2²⁴ cells is about 23× a paper-rate session
// (60 s × 400 Hz × 30 subcarriers = 720 000 cells): room for hour-long
// windows at low rates. The ring and the smoothed matrix then take at
// most 268 MB; maxWindowBytes bounds them together with the block sums.
const maxWindowCells = 1 << 24

// maxWindowBytes caps one session's window storage (see windowBytes) at
// 48 B per maxWindowCells cell, about 805 MB. Only the exact-sum blocks
// can push a session past it: a stride with a tiny gcd against the window
// (one packet, say) makes one block of 1 152 B per subcarrier per packet.
const maxWindowBytes = 48 * maxWindowCells

// windowGeometry returns cfg's window and stride in packets, each at
// least one. cfg must have passed check.
func windowGeometry(cfg *MonitorConfig) (window, stride int) {
	return max(int(cfg.WindowSeconds*cfg.SampleRate), 1),
		max(int(cfg.UpdateEverySeconds*cfg.SampleRate), 1)
}

// check is NewMonitor's guard: a positive rate, at least two antennas and
// one subcarrier, a positive window and stride, and window storage within
// maxWindowCells and maxWindowBytes.
func (cfg *MonitorConfig) check() error {
	if cfg.SampleRate <= 0 {
		return fmt.Errorf("core: sample rate must be positive, got %v", cfg.SampleRate)
	}
	if cfg.NumAntennas < 2 {
		return fmt.Errorf("core: need >= 2 antennas, got %d", cfg.NumAntennas)
	}
	if cfg.NumSubcarriers < 1 {
		return fmt.Errorf("core: need >= 1 subcarrier, got %d", cfg.NumSubcarriers)
	}
	if cfg.WindowSeconds <= 0 || cfg.UpdateEverySeconds <= 0 {
		return fmt.Errorf("core: window %vs / stride %vs must be positive",
			cfg.WindowSeconds, cfg.UpdateEverySeconds)
	}
	// Compared in float64 before any int conversion: int(1e300) wraps,
	// and the negated test also rejects a NaN product.
	if cells := cfg.WindowSeconds * cfg.SampleRate * float64(cfg.NumSubcarriers); !(cells <= maxWindowCells) {
		return fmt.Errorf("core: window %vs × %v Hz × %d subcarriers exceeds %d samples",
			cfg.WindowSeconds, cfg.SampleRate, cfg.NumSubcarriers, maxWindowCells)
	}
	if n := cfg.UpdateEverySeconds * cfg.SampleRate; !(n <= maxWindowCells) {
		return fmt.Errorf("core: stride %vs × %v Hz exceeds %d samples",
			cfg.UpdateEverySeconds, cfg.SampleRate, maxWindowCells)
	}
	window, stride := windowGeometry(cfg)
	if b := windowBytes(window, stride, cfg.NumSubcarriers); b > maxWindowBytes {
		return fmt.Errorf("core: window %vs / stride %vs splits into %d-packet exact-sum blocks "+
			"(their gcd): %d B of window storage, over the %d B session bound",
			cfg.WindowSeconds, cfg.UpdateEverySeconds, gcd(window, stride), b, maxWindowBytes)
	}
	return nil
}

// newEngine builds the stride engine a checked cfg describes.
func (cfg *MonitorConfig) newEngine(proc *Processor) *strideEngine {
	window, stride := windowGeometry(cfg)
	return newStrideEngine(proc, cfg.NumAntennas, cfg.NumSubcarriers, window, stride, cfg.SampleRate, cfg.Arena)
}

// windowBytes is the window storage of a stride engine: the wrapped
// difference ring and the smoothed matrix, 8 B per sample and subcarrier
// each, plus numAccs exact sums per subcarrier for each of the window's
// gcd(window, stride)-packet blocks. A paper-rate session (24 000-packet
// window, 2 000-packet stride, 30 subcarriers) holds 11 520 000 B plus
// 12 blocks' sums, 414 720 B.
func windowBytes(window, stride, subcarriers int) int64 {
	blocks := int64(window / gcd(window, stride))
	perBlock := int64(subcarriers) * numAccs * int64(unsafe.Sizeof(dsp.ExactSum{}))
	return 16*int64(window)*int64(subcarriers) + blocks*perBlock
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// NewMonitor validates the configuration and starts the worker goroutine.
func NewMonitor(cfg MonitorConfig) (*Monitor, error) {
	if err := cfg.check(); err != nil {
		return nil, err
	}
	if cfg.Persons < 1 {
		cfg.Persons = 1
	}
	if cfg.IngestBuffer < 1 {
		cfg.IngestBuffer = 1
	}
	proc, err := NewProcessor(WithConfig(cfg.Pipeline), WithPersons(cfg.Persons))
	if err != nil {
		return nil, err
	}
	m := &Monitor{cfg: cfg, processor: proc}
	// The observer and sink run on the worker goroutine; a panic in one
	// must degrade observability, not kill the monitor.
	proc.guard = &observerGuard{panics: &m.health.observerPanics, logger: cfg.Logger}
	m.in = make(chan inPacket, cfg.IngestBuffer)
	m.updates = make(chan Update, 1)
	m.stop = make(chan struct{})
	m.draining = make(chan struct{})
	m.done = make(chan struct{})
	m.metrics = m.registerMetrics(cfg.Metrics)
	go m.run()
	return m, nil
}

// Updates returns the estimate stream. It is closed when the Monitor
// stops.
func (m *Monitor) Updates() <-chan Update { return m.updates }

// Health returns the current cumulative ingest-health summary. It is safe
// to call from any goroutine at any time, including after Close.
func (m *Monitor) Health() Health { return m.health.snapshot() }

// Ingest submits one packet. Without DropOnBacklog it blocks until the
// worker accepts the packet; with it, Ingest never blocks — a full queue
// sheds its oldest packet instead.
//
// Post-Close semantics: Ingest deterministically returns false once Close
// has taken effect — every call that starts after Close returns reports
// false, and a call racing Close reports false whenever the packet can no
// longer be guaranteed to reach the worker (the packet may then sit
// unread in the queue; it is never silently half-accepted with a true
// return). A false verdict during the race window is conservative: the
// worker may in fact have consumed the packet before exiting.
func (m *Monitor) Ingest(p trace.Packet) bool {
	return m.IngestCtx(p, otrace.Ctx{})
}

// IngestCtx is Ingest with a latency trace context attached: the
// context rides the ingest queue with the packet and is stamped by the
// worker. Semantics are identical to Ingest; a zero Ctx is untraced.
func (m *Monitor) IngestCtx(p trace.Packet, ot otrace.Ctx) bool {
	ip := inPacket{pkt: p, ot: ot}
	// Stop-priority pre-check: a closed stop channel and a free buffer
	// slot would otherwise race in the selects below, and a post-Close
	// call must refuse even though the (dead) queue still has room.
	select {
	case <-m.stop:
		return false
	default:
	}
	if !m.cfg.DropOnBacklog {
		select {
		case <-m.stop:
			return false
		case m.in <- ip:
			return m.ingestCommitted()
		}
	}
	for {
		select {
		case <-m.stop:
			return false
		case m.in <- ip:
			return m.ingestCommitted()
		default:
		}
		// Queue full: shed the oldest queued packet to make room for the
		// new one. The worker may race us to it, in which case the next
		// send attempt usually succeeds without a drop.
		select {
		case <-m.in:
			m.health.dropped.Add(1)
		default:
			// The worker raced us to the oldest packet; the queue will
			// have room momentarily. Yield instead of spinning on two
			// failing non-blocking selects.
			runtime.Gosched()
		}
	}
}

// ingestCommitted re-checks stop after a won send: Close can close stop
// between Ingest's pre-check and the send, and the worker may then have
// exited without draining the queue, stranding the packet. Reporting
// false whenever stop is already closed keeps the documented post-Close
// guarantee airtight at the cost of an occasional conservative false for
// a packet the worker did consume on its way out.
func (m *Monitor) ingestCommitted() bool {
	select {
	case <-m.stop:
		return false
	default:
		return true
	}
}

// Close stops the worker and waits for it to exit. It is safe to call
// multiple times. Close is a hard emission barrier: an update whose
// delivery races Close is either fully committed (sent, observed,
// counted) or fully suppressed — never observed without being delivered —
// and after Close returns no further update is sent (the consumer may
// still drain updates that were committed beforehand).
func (m *Monitor) Close() {
	m.closeOnce.Do(func() { close(m.stop) })
	<-m.done
}

// Drain stops the worker after it has processed every packet already
// queued by Ingest and delivered the resulting updates — unlike Close,
// which abandons the queued backlog (up to IngestBuffer packets, the
// tail of the stream). Replay and batch feeds use Drain so the final
// strides are not silently lost.
//
// Callers must stop calling Ingest before Drain: a packet racing Drain
// may or may not be processed (and, if the queue is full, its Ingest may
// block until the post-drain stop makes it return false). The consumer
// must keep receiving from Updates() until it closes — updates emitted
// during the drain are delivered with the usual blocking send, so an
// abandoned consumer would deadlock the drain. After Drain returns the
// Monitor is closed.
func (m *Monitor) Drain() {
	m.drainOnce.Do(func() { close(m.draining) })
	<-m.done
	// Flip stop so post-drain Ingest refuses deterministically and a
	// later Close is a no-op.
	m.closeOnce.Do(func() { close(m.stop) })
}

// run is the worker loop: quarantine and push packets into the stride
// engine and emit an update whenever a full window plus a stride of new
// data is buffered.
func (m *Monitor) run() {
	defer close(m.done)
	defer close(m.updates)

	engine := m.cfg.newEngine(m.processor)
	// On exit the window slabs go back to the configured arena so the
	// next session of a shared-arena fleet reuses them (no-op unpooled).
	defer engine.release()
	for {
		select {
		case <-m.stop:
			return
		case ip := <-m.in:
			if !m.handle(engine, ip) {
				return
			}
		case <-m.draining:
			// Drain: finish the already-queued backlog, then exit. Stop
			// still wins so a concurrent Close cuts the drain short.
			for {
				select {
				case <-m.stop:
					return
				case ip := <-m.in:
					if !m.handle(engine, ip) {
						return
					}
				default:
					return
				}
			}
		}
	}
}

// handle quarantines one packet, pushes it into the stride engine, and
// emits an update when a stride completes. It returns false when the
// worker should exit because Close refused the delivery.
func (m *Monitor) handle(engine *strideEngine, ip inPacket) bool {
	logger := m.cfg.Logger
	p := ip.pkt
	// Stamp the queue-dwell boundary only for traced packets — the
	// untraced path reads no clock (zero-overhead contract).
	if ip.ot.Live() {
		ip.ot.QueueDeq = otrace.Now()
	}
	verdict, gapReset := engine.push(p)
	switch verdict {
	case pushMalformed:
		m.health.malformed.Add(1)
		if logger != nil {
			logger.Debug("packet quarantined", "cause", "malformed", "time", p.Time)
		}
		return true
	case pushNonFinite:
		m.health.nonFinite.Add(1)
		if logger != nil {
			logger.Debug("packet quarantined", "cause", "non-finite", "time", p.Time)
		}
		return true
	case pushNonMonotonic:
		m.health.nonMonotonic.Add(1)
		if logger != nil {
			logger.Debug("packet quarantined", "cause", "non-monotonic", "time", p.Time)
		}
		return true
	}
	m.health.accepted.Add(1)
	if gapReset {
		m.health.gapResets.Add(1)
		if logger != nil {
			logger.Warn("gap reset: window discarded and re-anchored", "time", p.Time)
		}
	}
	if !engine.ready() {
		return true
	}
	// The stride is recorded, and timed, only when a consumer of the
	// record is wired; the disabled path reads no clock.
	var rec *StrideRecord
	var t0 time.Time
	if m.cfg.Metrics != nil || m.cfg.Tracer.Enabled() || m.cfg.Pipeline.Sink != nil {
		rec = newStrideRecord()
		t0 = time.Now()
	}
	engine.rec = rec
	res, err := engine.process()
	var took time.Duration
	if rec != nil {
		took = time.Since(t0)
	}
	if ip.ot.Live() {
		ip.ot.ComputeEnd = otrace.Now()
		ip.ot.Stages = rec.spanStages()
	}
	u := Update{
		Time:   p.Time,
		Result: res,
		Err:    err,
		Health: m.health.snapshot(),
		Trace:  ip.ot,
	}
	// The channel send is the commit point: deliver refuses (with
	// stop observed at priority) once Close has begun, and observe
	// accounts only committed updates — so a consumer draining to
	// channel close sees exactly the updates the sink saw, with no
	// "±1 final update" race against Close.
	if !m.deliver(&u) {
		return false
	}
	m.observe(rec, u, took)
	return true
}

// observe feeds one delivered stride to every Monitor-side consumer: the
// stage, stride and update metrics (read from the record), the
// degraded-stride log line (from the Health delta) and the sink. The
// record's stage timings already rode out on the update as span child
// stages. rec is nil when no consumer of it is wired.
func (m *Monitor) observe(rec *StrideRecord, u Update, took time.Duration) {
	delta := u.Health.Sub(m.lastHealth)
	m.lastHealth = u.Health
	if m.cfg.Metrics != nil {
		m.metrics.record(rec, took)
	}
	if logger := m.cfg.Logger; logger != nil {
		if delta.Degraded() {
			logger.Warn("degraded stride", "time", u.Time, "delta", delta.String())
		}
		logger.Debug("update", "time", u.Time,
			"breathing_bpm", breathingBPM(u.Result), "err", u.Err)
	}
	if m.cfg.Pipeline.Sink != nil {
		rec.Update = u
		rec.HealthDelta = delta
		m.processor.emit(rec)
	}
}

// breathingBPM extracts the single-person rate for log output; 0 when the
// update carries no breathing estimate.
func breathingBPM(res *Result) float64 {
	if res == nil || res.Breathing == nil {
		return 0
	}
	return res.Breathing.RateBPM
}

// deliver hands one update to the consumer, or refuses it when the
// monitor is stopping. Stop is observed with priority before any send is
// attempted, making Close a hard barrier: once the worker sees stop, no
// further update is committed (and the run loop then skips observe too,
// keeping emitted == observed exact).
//
// In drop-on-backlog mode a stale undelivered update is replaced by the
// new one instead of blocking the worker; every replacement is counted in
// Health.UpdatesReplaced so a slow consumer can tell estimates went
// missing.
func (m *Monitor) deliver(u *Update) bool {
	select {
	case <-m.stop:
		return false
	default:
	}
	if !m.cfg.DropOnBacklog {
		select {
		case m.updates <- *u:
			return true
		case <-m.stop:
			return false
		}
	}
	// Fast path: room in the buffer.
	select {
	case m.updates <- *u:
		return true
	case <-m.stop:
		return false
	default:
	}
	// Buffer full: evict the stale update to make room. The eviction can
	// lose a race against the consumer's own receive — in which case the
	// buffer is empty anyway — so either way there is room afterwards, and
	// the worker is the only sender, so nothing can refill it behind our
	// back. A single blocking select then commits the send without the
	// evict-fails/retry-immediately spin the old loop burned a core on.
	select {
	case <-m.updates:
		m.health.replaced.Add(1)
		// The in-flight update's snapshot predates this replacement;
		// refresh it so its Health accounts for the estimate it evicted.
		u.Health.UpdatesReplaced = m.health.replaced.Load()
	default:
	}
	select {
	case m.updates <- *u:
		return true
	case <-m.stop:
		return false
	}
}
