// Package store is the fleet's tiered trace store: a time-partitioned,
// retention-bounded archive of every session's raw CSI stream and
// estimate history, with precomputed downsample tiers for cheap
// long-range queries.
//
// Layout (one directory per session under the store root, session keys
// path-escaped):
//
//	<root>/<session>/meta.json                      session stream metadata
//	<root>/<session>/blk-<seq>-<t0us>-<t1us>.pbgz   sealed gzip trace blocks
//	<root>/<session>/tiers.bin                      downsample tier index
//	<root>/<session>/tail.pblog                     crash log of the open block
//
// Appends accumulate in an in-memory block buffer mirrored by the tail
// log; when the buffer spans the configured block duration it is sealed:
// compressed with the hardened trace codec into an immutable block file
// (tmp+rename), the tier index is persisted, and the tail log is reset.
// Retention evicts sealed blocks oldest-first (global seal order) when
// the byte or age budget is exceeded, trimming the tier index to match.
// Recovery after a crash rebuilds the session from the directory: sealed
// blocks and the tier index are intact by construction, the index names
// the blocks its waveform series cover (newer ones are re-fed), and the
// tail log yields every complete record — at most the torn trailing
// record (plus estimate-history points since the last seal) is lost.
package store

import (
	"errors"
	"fmt"
	"log/slog"
	"math"
	"math/cmplx"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"phasebeat/internal/core"
	"phasebeat/internal/metrics"
	"phasebeat/internal/trace"
)

var (
	// ErrClosed reports an operation on a closed store.
	ErrClosed = errors.New("store: closed")
	// ErrReadOnly reports a mutation on a read-only store.
	ErrReadOnly = errors.New("store: read-only")
	// ErrUnknownSession reports a query or append for a session the store
	// does not hold.
	ErrUnknownSession = errors.New("store: unknown session")
	// ErrUnknownTier reports a range query naming a tier the store does
	// not maintain.
	ErrUnknownTier = errors.New("store: unknown tier")
	// ErrBadRange reports a range query whose interval is empty or
	// inverted.
	ErrBadRange = errors.New("store: bad range")
)

// DefaultTierSeconds are the downsample resolutions maintained per
// session, finest first.
var DefaultTierSeconds = []float64{1, 10, 60}

// Config configures a Store.
type Config struct {
	// Dir is the store root directory (created if missing).
	Dir string
	// BlockSeconds is the trace-time span buffered before a block is
	// sealed (default 60 — one analysis window per block at the paper's
	// operating point).
	BlockSeconds float64
	// TierSeconds are the downsample tier resolutions in ascending order
	// (default DefaultTierSeconds).
	TierSeconds []float64
	// MaxBytes bounds the total size of sealed block files; exceeding it
	// evicts the globally oldest sealed blocks. Zero = unlimited. The
	// unsealed tail and the tier index are outside the budget.
	MaxBytes int64
	// MaxAge evicts sealed blocks older (by wall-clock seal time) than
	// this. Zero = unlimited.
	MaxAge time.Duration
	// ReadOnly opens the store for queries and replay without mutating
	// the directory: appends fail, recovery does not rewrite the tail
	// log, Close persists nothing. Use it for postmortem access to a
	// store another process may still own.
	ReadOnly bool
	// Metrics, when non-nil, receives the store.* counters and gauges.
	Metrics *metrics.Registry
	// Logger, when non-nil, receives seal/evict/recovery events.
	Logger *slog.Logger
	// Now overrides the wall clock (tests). Nil = time.Now.
	Now func() time.Time
}

// Meta is a session's stream metadata, persisted as meta.json so a
// postmortem replay can rebuild the exact Monitor configuration the
// session ran with.
type Meta struct {
	SampleRate     float64 `json:"sample_rate"`
	NumAntennas    int     `json:"num_antennas"`
	NumSubcarriers int     `json:"num_subcarriers"`
	WindowSeconds  float64 `json:"window_seconds,omitempty"`
	StrideSeconds  float64 `json:"stride_seconds,omitempty"`
	Persons        int     `json:"persons,omitempty"`
}

// Stats is a point-in-time store summary.
type Stats struct {
	Sessions      int
	Blocks        int
	Bytes         int64
	Seals         uint64
	Evictions     uint64
	TailRecovered uint64
	TailLost      uint64
}

// blockInfo describes one sealed, immutable block file.
type blockInfo struct {
	seq      uint64 // per-session seal order
	sealSeq  uint64 // store-global seal order (eviction key)
	t0, t1   float64
	packets  int
	bytes    int64
	sealedAt time.Time
	path     string
}

// sessionStore is one session's mutable state. Its mutex guards
// everything below it; Store.mu (sessions map, retention accounting) is
// never held while a session mutex is taken by the append path, and the
// eviction path locks sessions one at a time.
type sessionStore struct {
	mu sync.Mutex

	key  string
	dir  string
	meta Meta

	seq     uint64
	blocks  []blockInfo
	tiers   *tierSet
	buf     []trace.Packet
	tail    *tailWriter
	lastT   float64 // newest accepted packet time
	haveT   bool
	updates uint64 // estimate-history points recorded
	sealed  bool   // closed for appends (CloseSession)
}

// Store is the tiered trace store. All methods are safe for concurrent
// use.
type Store struct {
	cfg Config
	now func() time.Time

	mu       sync.Mutex
	sessions map[string]*sessionStore
	closed   bool

	bytes   atomic.Int64
	sealSeq atomic.Uint64

	seals, evictions         *metrics.Counter
	tailRecovered, tailLost  *metrics.Counter
	rawHits, blocksRead      *metrics.Counter
	appendRejected           *metrics.Counter
	tierHits                 []*metrics.Counter // parallel to cfg.TierSeconds
	blockCorrupt, blocksLost *metrics.Counter
	appendSeconds            *metrics.Histogram
}

// Open opens (and, unless read-only, creates) the store rooted at
// cfg.Dir, recovering any sessions already on disk.
func Open(cfg Config) (*Store, error) {
	if cfg.Dir == "" {
		return nil, errors.New("store: Config.Dir is required")
	}
	if cfg.BlockSeconds == 0 {
		cfg.BlockSeconds = 60
	}
	if cfg.BlockSeconds <= 0 || math.IsNaN(cfg.BlockSeconds) || math.IsInf(cfg.BlockSeconds, 0) {
		return nil, fmt.Errorf("store: block duration %v", cfg.BlockSeconds)
	}
	if len(cfg.TierSeconds) == 0 {
		cfg.TierSeconds = DefaultTierSeconds
	}
	if len(cfg.TierSeconds) > maxTiers {
		return nil, fmt.Errorf("store: %d tiers exceeds %d", len(cfg.TierSeconds), maxTiers)
	}
	last := 0.0
	for _, d := range cfg.TierSeconds {
		if !(d > last) || math.IsInf(d, 0) {
			return nil, fmt.Errorf("store: tier durations must ascend and be finite: %v", cfg.TierSeconds)
		}
		last = d
	}
	s := &Store{
		cfg:      cfg,
		now:      cfg.Now,
		sessions: make(map[string]*sessionStore),
	}
	if s.now == nil {
		s.now = time.Now
	}
	if !cfg.ReadOnly {
		if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
	}
	s.register(cfg.Metrics)
	if err := s.recover(); err != nil {
		return nil, err
	}
	return s, nil
}

// register wires the store metrics into reg (nil is a no-op: the metric
// types' nil-safe methods make every hook free when disabled).
func (s *Store) register(reg *metrics.Registry) {
	s.seals = reg.Counter("store.seals")
	s.evictions = reg.Counter("store.evictions")
	s.tailRecovered = reg.Counter("store.tail.recovered")
	s.tailLost = reg.Counter("store.tail.lost")
	s.rawHits = reg.Counter("store.raw.hits")
	s.blocksRead = reg.Counter("store.blocks.read")
	s.appendRejected = reg.Counter("store.append.rejected")
	s.blockCorrupt = reg.Counter("store.blocks.corrupt")
	s.blocksLost = reg.Counter("store.blocks.lost")
	s.tierHits = make([]*metrics.Counter, len(s.cfg.TierSeconds))
	for i, d := range s.cfg.TierSeconds {
		s.tierHits[i] = reg.Counter("store.tier.hits." + TierLabel(d))
	}
	if reg == nil {
		return
	}
	// Append latency (tail write + tier ingestion + any seal it caused)
	// on the shared LatencyBounds ladder so it lines up with the fleet
	// span histograms. Registered only with a live registry: AppendPacket
	// gates its clock reads on the field being non-nil.
	s.appendSeconds = reg.Histogram("store.append.seconds", metrics.LatencyBounds)
	reg.RegisterFunc("store.sessions", func() float64 { return float64(s.Stats().Sessions) })
	reg.RegisterFunc("store.blocks", func() float64 { return float64(s.Stats().Blocks) })
	reg.RegisterFunc("store.bytes", func() float64 { return float64(s.bytes.Load()) })
}

// Stats returns the current store summary.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	sess := make([]*sessionStore, 0, len(s.sessions))
	for _, ss := range s.sessions {
		sess = append(sess, ss)
	}
	s.mu.Unlock()
	st := Stats{
		Sessions:      len(sess),
		Bytes:         s.bytes.Load(),
		Seals:         s.seals.Value(),
		Evictions:     s.evictions.Value(),
		TailRecovered: s.tailRecovered.Value(),
		TailLost:      s.tailLost.Value(),
	}
	for _, ss := range sess {
		ss.mu.Lock()
		st.Blocks += len(ss.blocks)
		ss.mu.Unlock()
	}
	return st
}

// sessionDir maps a session key to its directory (keys are untrusted
// strings off the wire — path-escape them).
func (s *Store) sessionDir(key string) string {
	return filepath.Join(s.cfg.Dir, url.PathEscape(key))
}

// OpenSession registers a session and persists its metadata. Reopening a
// live or recovered session is idempotent (the new metadata wins when it
// is more complete).
func (s *Store) OpenSession(key string, meta Meta) error {
	if key == "" {
		return errors.New("store: empty session key")
	}
	if s.cfg.ReadOnly {
		return ErrReadOnly
	}
	if meta.SampleRate <= 0 || meta.NumAntennas < 1 || meta.NumSubcarriers < 1 {
		return fmt.Errorf("store: open %q: incomplete meta %+v", key, meta)
	}
	if meta.NumAntennas > trace.MaxAntennas || meta.NumSubcarriers > trace.MaxSubcarriers {
		return fmt.Errorf("store: open %q: shape %d×%d exceeds %d×%d",
			key, meta.NumAntennas, meta.NumSubcarriers, trace.MaxAntennas, trace.MaxSubcarriers)
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	ss := s.sessions[key]
	if ss == nil {
		ss = &sessionStore{key: key, dir: s.sessionDir(key), tiers: newTierSet(s.cfg.TierSeconds)}
		s.sessions[key] = ss
	}
	s.mu.Unlock()

	ss.mu.Lock()
	defer ss.mu.Unlock()
	ss.meta = meta
	ss.sealed = false
	if err := os.MkdirAll(ss.dir, 0o755); err != nil {
		return fmt.Errorf("store: open %q: %w", key, err)
	}
	if err := writeJSONAtomic(filepath.Join(ss.dir, "meta.json"), ss.meta); err != nil {
		return fmt.Errorf("store: open %q: %w", key, err)
	}
	if ss.tail == nil {
		tw, err := newTailWriter(filepath.Join(ss.dir, "tail.pblog"),
			meta.SampleRate, meta.NumAntennas, meta.NumSubcarriers)
		if err != nil {
			return fmt.Errorf("store: open %q: %w", key, err)
		}
		// Recovered tail packets (already in ss.buf) must survive the
		// header rewrite: re-log them so the on-disk tail mirrors the
		// buffer again.
		for _, p := range ss.buf {
			if err := tw.append(p); err != nil {
				tw.close()
				return fmt.Errorf("store: open %q: relog tail: %w", key, err)
			}
		}
		ss.tail = tw
	}
	return nil
}

// AppendPacket records one CSI packet into the session's open block. The
// packet is retained until seal and must not be mutated by the caller
// afterwards. Packets that do not match the session shape or run
// backwards in time are rejected (counted in store.append.rejected) so a
// sealed block always satisfies the trace codec's validity contract.
func (s *Store) AppendPacket(key string, p trace.Packet) error {
	// Observe the append latency only when a registry is wired — no
	// registry, no clock reads (DESIGN §9).
	if s.appendSeconds != nil {
		t0 := time.Now()
		defer func() { s.appendSeconds.Observe(time.Since(t0).Seconds()) }()
	}
	ss, err := s.mutableSession(key)
	if err != nil {
		return err
	}
	ss.mu.Lock()
	if ss.sealed || ss.tail == nil {
		ss.mu.Unlock()
		return fmt.Errorf("%w: %q not open for append", ErrUnknownSession, key)
	}
	if len(p.CSI) != ss.meta.NumAntennas {
		ss.mu.Unlock()
		s.appendRejected.Inc()
		return fmt.Errorf("store: %q: packet has %d antennas, want %d", key, len(p.CSI), ss.meta.NumAntennas)
	}
	for _, row := range p.CSI {
		if len(row) != ss.meta.NumSubcarriers {
			ss.mu.Unlock()
			s.appendRejected.Inc()
			return fmt.Errorf("store: %q: packet row has %d subcarriers, want %d",
				key, len(row), ss.meta.NumSubcarriers)
		}
	}
	if math.IsNaN(p.Time) || (ss.haveT && p.Time < ss.lastT) {
		ss.mu.Unlock()
		s.appendRejected.Inc()
		return fmt.Errorf("store: %q: non-monotonic packet time %v", key, p.Time)
	}
	if err := ss.tail.append(p); err != nil {
		ss.mu.Unlock()
		return fmt.Errorf("store: %q: tail: %w", key, err)
	}
	// Copy the CSI: callers (the fleet arena in particular) recycle
	// packet backing arrays after the append returns, and buf is held
	// until the block seals.
	ss.buf = append(ss.buf, p.Clone())
	ss.lastT, ss.haveT = p.Time, true
	ss.tiers.add(seriesWave, p.Time, waveSample(p))
	sealed := false
	if span := p.Time - ss.buf[0].Time; span >= s.cfg.BlockSeconds {
		if err := s.sealLocked(ss); err != nil {
			ss.mu.Unlock()
			return err
		}
		sealed = true
	}
	ss.mu.Unlock()
	if sealed {
		s.enforceRetention()
	}
	return nil
}

// AppendUpdate records one Monitor update into the session's estimate
// history tiers. Updates carrying no estimate (errored windows) are
// skipped.
func (s *Store) AppendUpdate(key string, u core.Update) error {
	ss, err := s.mutableSession(key)
	if err != nil {
		return err
	}
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if ss.sealed {
		return fmt.Errorf("%w: %q not open for append", ErrUnknownSession, key)
	}
	if r := u.Result; r != nil {
		recorded := false
		if r.Breathing != nil {
			ss.tiers.add(seriesBreath, u.Time, r.Breathing.RateBPM)
			recorded = true
		}
		if r.Heart != nil {
			ss.tiers.add(seriesHeart, u.Time, r.Heart.RateBPM)
			recorded = true
		}
		if recorded {
			ss.updates++
		}
	}
	return nil
}

// mutableSession resolves key for an append.
func (s *Store) mutableSession(key string) (*sessionStore, error) {
	if s.cfg.ReadOnly {
		return nil, ErrReadOnly
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	ss := s.sessions[key]
	if ss == nil {
		return nil, fmt.Errorf("%w: %q", ErrUnknownSession, key)
	}
	return ss, nil
}

// session resolves key for a query (allowed on read-only stores).
func (s *Store) session(key string) (*sessionStore, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ss := s.sessions[key]
	if ss == nil {
		return nil, fmt.Errorf("%w: %q", ErrUnknownSession, key)
	}
	return ss, nil
}

// CloseSession seals the session's open block and persists its tier
// index. The session stays queryable; further appends fail until it is
// reopened.
func (s *Store) CloseSession(key string) error {
	ss, err := s.mutableSession(key)
	if err != nil {
		return err
	}
	ss.mu.Lock()
	if err := s.sealLocked(ss); err != nil {
		ss.mu.Unlock()
		return err
	}
	ss.sealed = true
	tail := ss.tail
	ss.tail = nil
	ss.mu.Unlock()
	if cerr := tail.close(); cerr != nil && err == nil {
		err = cerr
	}
	s.enforceRetention()
	return err
}

// Close seals every open session and releases the store. Further
// operations fail with ErrClosed.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	sess := make([]*sessionStore, 0, len(s.sessions))
	for _, ss := range s.sessions {
		sess = append(sess, ss)
	}
	s.mu.Unlock()
	var first error
	for _, ss := range sess {
		ss.mu.Lock()
		if !s.cfg.ReadOnly && !ss.sealed {
			if err := s.sealLocked(ss); err != nil && first == nil {
				first = err
			}
		}
		ss.sealed = true
		tail := ss.tail
		ss.tail = nil
		ss.mu.Unlock()
		if err := tail.close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// sealLocked flushes the session's buffered packets into an immutable
// block file, persists the tier index, and resets the tail log. Caller
// holds ss.mu.
func (s *Store) sealLocked(ss *sessionStore) error {
	if s.cfg.ReadOnly {
		return ErrReadOnly
	}
	if len(ss.buf) == 0 {
		return nil
	}
	t0, t1 := ss.buf[0].Time, ss.buf[len(ss.buf)-1].Time
	tr := &trace.Trace{
		SampleRate:     ss.meta.SampleRate,
		NumAntennas:    ss.meta.NumAntennas,
		NumSubcarriers: ss.meta.NumSubcarriers,
		Packets:        ss.buf,
	}
	name := blockName(ss.seq, t0, t1)
	path := filepath.Join(ss.dir, name)
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("store: seal %q: %w", ss.key, err)
	}
	if err := trace.WriteCompressed(f, tr); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("store: seal %q: %w", ss.key, err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: seal %q: %w", ss.key, err)
	}
	fi, err := os.Stat(tmp)
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: seal %q: %w", ss.key, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: seal %q: %w", ss.key, err)
	}
	bi := blockInfo{
		seq:      ss.seq,
		sealSeq:  s.sealSeq.Add(1),
		t0:       t0,
		t1:       t1,
		packets:  len(ss.buf),
		bytes:    fi.Size(),
		sealedAt: s.now(),
		path:     path,
	}
	ss.seq++
	ss.blocks = append(ss.blocks, bi)
	s.bytes.Add(bi.bytes)
	// Release the packet references; the backing array is reused.
	for i := range ss.buf {
		ss.buf[i] = trace.Packet{}
	}
	ss.buf = ss.buf[:0]
	if ss.tail != nil {
		if err := ss.tail.reset(ss.meta.SampleRate); err != nil {
			return fmt.Errorf("store: seal %q: tail reset: %w", ss.key, err)
		}
	}
	if err := s.persistTiersLocked(ss); err != nil {
		return err
	}
	s.seals.Inc()
	if s.cfg.Logger != nil {
		s.cfg.Logger.Debug("block sealed", "session", ss.key,
			"seq", bi.seq, "t0", t0, "t1", t1, "packets", bi.packets, "bytes", bi.bytes)
	}
	return nil
}

// persistTiersLocked writes tiers.bin atomically, recording that its
// waveform series cover every block sealed so far. Caller holds ss.mu.
func (s *Store) persistTiersLocked(ss *sessionStore) error {
	ss.tiers.next = ss.seq
	path := filepath.Join(ss.dir, "tiers.bin")
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("store: tiers %q: %w", ss.key, err)
	}
	if err := writeTiers(f, ss.tiers); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("store: tiers %q: %w", ss.key, err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: tiers %q: %w", ss.key, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: tiers %q: %w", ss.key, err)
	}
	return nil
}

// enforceRetention evicts globally-oldest sealed blocks until the byte
// and age budgets hold. Called without any session lock held.
func (s *Store) enforceRetention() {
	if s.cfg.ReadOnly || (s.cfg.MaxBytes <= 0 && s.cfg.MaxAge <= 0) {
		return
	}
	for {
		s.mu.Lock()
		sess := make([]*sessionStore, 0, len(s.sessions))
		for _, ss := range s.sessions {
			sess = append(sess, ss)
		}
		s.mu.Unlock()
		var (
			victim *sessionStore
			oldest blockInfo
			found  bool
		)
		for _, ss := range sess {
			ss.mu.Lock()
			if len(ss.blocks) > 0 && (!found || ss.blocks[0].sealSeq < oldest.sealSeq) {
				victim, oldest, found = ss, ss.blocks[0], true
			}
			ss.mu.Unlock()
		}
		if !found {
			return
		}
		overBytes := s.cfg.MaxBytes > 0 && s.bytes.Load() > s.cfg.MaxBytes
		overAge := s.cfg.MaxAge > 0 && s.now().Sub(oldest.sealedAt) > s.cfg.MaxAge
		if !overBytes && !overAge {
			return
		}
		victim.mu.Lock()
		// Re-check under the lock: a concurrent evictor may have beaten
		// us to this block.
		if len(victim.blocks) == 0 || victim.blocks[0].sealSeq != oldest.sealSeq {
			victim.mu.Unlock()
			continue
		}
		victim.blocks = append(victim.blocks[:0], victim.blocks[1:]...)
		cutoff := math.Inf(1) // no data left: wipe the tier index
		if len(victim.blocks) > 0 {
			cutoff = victim.blocks[0].t0
		} else if len(victim.buf) > 0 {
			cutoff = victim.buf[0].Time
		}
		victim.tiers.trim(cutoff)
		tiersErr := s.persistTiersLocked(victim)
		victim.mu.Unlock()
		if err := os.Remove(oldest.path); err != nil && !os.IsNotExist(err) {
			if s.cfg.Logger != nil {
				s.cfg.Logger.Warn("evict remove failed", "path", oldest.path, "err", err)
			}
		}
		s.bytes.Add(-oldest.bytes)
		s.evictions.Inc()
		if s.cfg.Logger != nil {
			s.cfg.Logger.Debug("block evicted", "session", victim.key,
				"seq", oldest.seq, "bytes", oldest.bytes, "tiersErr", tiersErr)
		}
	}
}

// Sweep applies the age budget immediately (the byte budget is enforced
// at seal time; a daemon can call Sweep periodically so idle sessions
// age out too).
func (s *Store) Sweep() { s.enforceRetention() }

// blockName encodes a block's identity into its filename:
// blk-<seq>-x<t0>-x<t1>.pbgz, seq zero-padded to eight digits so lexical
// order is seal order, and each time as its float64 bits in 16 hex
// digits, so the name keeps the block's first and last packet times
// exactly.
func blockName(seq uint64, t0, t1 float64) string {
	return fmt.Sprintf("blk-%08d-x%016x-x%016x.pbgz", seq, math.Float64bits(t0), math.Float64bits(t1))
}

// parseBlockName inverts blockName. It also accepts the legacy names
// blk-<seq>-<t0 µs>-<t1 µs>.pbgz, whose times are whole microseconds
// (decimal, 15 digits zero-padded): exact is false for those, and their
// t1 may sit up to 1 µs below the block's last packet.
func parseBlockName(name string) (seq uint64, t0, t1 float64, exact, ok bool) {
	if !strings.HasPrefix(name, "blk-") || !strings.HasSuffix(name, ".pbgz") {
		return 0, 0, 0, false, false
	}
	parts := strings.Split(strings.TrimSuffix(strings.TrimPrefix(name, "blk-"), ".pbgz"), "-")
	if len(parts) != 3 {
		return 0, 0, 0, false, false
	}
	seq, err := strconv.ParseUint(parts[0], 10, 64)
	if err != nil {
		return 0, 0, 0, false, false
	}
	exact = strings.HasPrefix(parts[1], "x")
	var ts [2]float64
	for i, part := range parts[1:] {
		if exact {
			bits, err := strconv.ParseUint(strings.TrimPrefix(part, "x"), 16, 64)
			if err != nil || len(part) != 17 {
				return 0, 0, 0, false, false
			}
			ts[i] = math.Float64frombits(bits)
			continue
		}
		us, err := strconv.ParseInt(part, 10, 64)
		if err != nil {
			return 0, 0, 0, false, false
		}
		ts[i] = float64(us) / 1e6
	}
	return seq, ts[0], ts[1], exact, true
}

// recover rebuilds the session map from the store directory.
func (s *Store) recover() error {
	entries, err := os.ReadDir(s.cfg.Dir)
	if err != nil {
		if os.IsNotExist(err) && s.cfg.ReadOnly {
			return fmt.Errorf("store: %w", err)
		}
		if os.IsNotExist(err) {
			return nil
		}
		return fmt.Errorf("store: %w", err)
	}
	type pending struct {
		ss *sessionStore
		bi blockInfo
	}
	var all []pending
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		key, err := url.PathUnescape(e.Name())
		if err != nil {
			continue
		}
		ss, blocks, err := s.recoverSession(key, filepath.Join(s.cfg.Dir, e.Name()))
		if err != nil {
			if s.cfg.Logger != nil {
				s.cfg.Logger.Warn("session recovery failed", "session", key, "err", err)
			}
			continue
		}
		s.sessions[key] = ss
		for _, bi := range blocks {
			all = append(all, pending{ss, bi})
		}
	}
	// Assign the global seal order blocks will be evicted in: wall-clock
	// seal time (file mtime survives the restart), ties broken by key
	// and per-session sequence.
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if !a.bi.sealedAt.Equal(b.bi.sealedAt) {
			return a.bi.sealedAt.Before(b.bi.sealedAt)
		}
		if a.ss.key != b.ss.key {
			return a.ss.key < b.ss.key
		}
		return a.bi.seq < b.bi.seq
	})
	for _, p := range all {
		p.bi.sealSeq = s.sealSeq.Add(1)
		p.ss.blocks = append(p.ss.blocks, p.bi)
		s.bytes.Add(p.bi.bytes)
	}
	// Within a session, order blocks by per-session sequence (the append
	// above kept global seal order, which can interleave mtime ties).
	for _, ss := range s.sessions {
		sort.Slice(ss.blocks, func(i, j int) bool { return ss.blocks[i].seq < ss.blocks[j].seq })
		if n := len(ss.blocks); n > 0 {
			ss.seq = ss.blocks[n-1].seq + 1
		}
	}
	s.enforceRetention()
	return nil
}

// recoverSession rebuilds one session directory: metadata, sealed block
// inventory, tier index, and the crash tail.
func (s *Store) recoverSession(key, dir string) (*sessionStore, []blockInfo, error) {
	ss := &sessionStore{key: key, dir: dir, tiers: newTierSet(s.cfg.TierSeconds), sealed: true}
	if err := readJSON(filepath.Join(dir, "meta.json"), &ss.meta); err != nil {
		return nil, nil, fmt.Errorf("meta.json: %w", err)
	}
	if ss.meta.SampleRate <= 0 || ss.meta.NumAntennas < 1 || ss.meta.NumSubcarriers < 1 {
		return nil, nil, fmt.Errorf("meta.json: incomplete meta %+v", ss.meta)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	var blocks []blockInfo
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		name := e.Name()
		if strings.HasSuffix(name, ".tmp") {
			// A seal died mid-write; the block's packets are still in the
			// tail log, so the torn temp file is just garbage.
			if !s.cfg.ReadOnly {
				os.Remove(filepath.Join(dir, name))
			}
			continue
		}
		seq, t0, t1, _, ok := parseBlockName(name)
		if !ok {
			continue
		}
		fi, err := e.Info()
		if err != nil {
			continue
		}
		blocks = append(blocks, blockInfo{
			seq: seq, t0: t0, t1: t1,
			bytes: fi.Size(), sealedAt: fi.ModTime(),
			path: filepath.Join(dir, name),
		})
	}
	sort.Slice(blocks, func(i, j int) bool { return blocks[i].seq < blocks[j].seq })
	// The newest block's t1 ends raw range queries and, after a clean
	// close, is the session's last time. A legacy name keeps it only to
	// whole microseconds, so read that block once for its exact times.
	if n := len(blocks); n > 0 {
		newest := &blocks[n-1]
		if _, _, _, exact, _ := parseBlockName(filepath.Base(newest.path)); !exact {
			if tr, err := readBlock(newest.path); err == nil && tr.Len() > 0 {
				newest.t0, newest.t1 = tr.Packets[0].Time, tr.Packets[tr.Len()-1].Time
			}
		}
	}

	// Tier index: atomic writes mean it is either absent (no seal yet) or
	// intact, but a kill between a block's rename and the index persist
	// leaves it one block stale, so the waveform series are re-fed from
	// every block newer than the index covers. If the index is damaged
	// (disk fault), the waveform series are rebuilt from every block; the
	// estimate history cannot be reconstructed from raw CSI and is lost
	// with a warning.
	from := uint64(0)
	if f, err := os.Open(filepath.Join(dir, "tiers.bin")); err == nil {
		ts, terr := readTiers(f)
		f.Close()
		if terr == nil && len(ts.durs) == len(s.cfg.TierSeconds) && sameDurs(ts.durs, s.cfg.TierSeconds) {
			ss.tiers, from = ts, ts.next
		} else if s.cfg.Logger != nil {
			s.cfg.Logger.Warn("tier index rebuilt", "session", key, "err", terr)
		}
	}
	s.feedWaveTiers(ss, blocks, from)

	// Crash tail: keep every complete record, discard a torn trailer.
	if f, err := os.Open(filepath.Join(dir, "tail.pblog")); err == nil {
		_, pkts, partial, terr := readTail(f)
		f.Close()
		if terr != nil {
			s.tailLost.Inc()
			if s.cfg.Logger != nil {
				s.cfg.Logger.Warn("tail log unusable", "session", key, "err", terr)
			}
		} else {
			// Only packets newer than the last sealed block belong in the
			// buffer. A crash between block rename and tail reset leaves
			// the tail holding exactly that block's packets, so a tail
			// whose first and last times are the block's is dropped whole.
			// Any other tail postdates every block.
			if n := len(blocks); n > 0 && len(pkts) > 0 {
				newest := blocks[n-1]
				if pkts[0].Time == newest.t0 && pkts[len(pkts)-1].Time == newest.t1 {
					pkts = nil
				}
			}
			for _, p := range pkts {
				ss.buf = append(ss.buf, p)
				ss.lastT, ss.haveT = p.Time, true
				ss.tiers.add(seriesWave, p.Time, waveSample(p))
			}
			s.tailRecovered.Add(uint64(len(ss.buf)))
			if partial {
				s.tailLost.Inc()
			}
		}
	}
	if !ss.haveT && len(blocks) > 0 {
		ss.lastT, ss.haveT = blocks[len(blocks)-1].t1, true
	}
	return ss, blocks, nil
}

// feedWaveTiers adds the packets of every sealed block with seq >= from
// to the waveform tier series — the recovery path for blocks a stale,
// damaged or missing tier index does not cover.
func (s *Store) feedWaveTiers(ss *sessionStore, blocks []blockInfo, from uint64) {
	for _, bi := range blocks {
		if bi.seq < from {
			continue
		}
		tr, err := readBlock(bi.path)
		if err != nil {
			s.blockCorrupt.Inc()
			continue
		}
		for _, p := range tr.Packets {
			ss.tiers.add(seriesWave, p.Time, waveSample(p))
		}
	}
}

func sameDurs(a, b []float64) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// readBlock decodes one sealed block file with the hardened gzip trace
// reader (CRC-verified, prealloc-bounded).
func readBlock(path string) (*trace.Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return trace.ReadCompressed(f)
}

// waveSample reduces one CSI packet to the scalar the waveform tiers
// track: the phase difference between the first two antennas on the
// middle subcarrier — the paper's breathing-carrying observable — or the
// middle-subcarrier amplitude when only one antenna is present.
func waveSample(p trace.Packet) float64 {
	if len(p.CSI) == 0 || len(p.CSI[0]) == 0 {
		return 0
	}
	mid := len(p.CSI[0]) / 2
	if len(p.CSI) >= 2 && len(p.CSI[1]) > mid {
		return cmplx.Phase(p.CSI[0][mid] * cmplx.Conj(p.CSI[1][mid]))
	}
	return cmplx.Abs(p.CSI[0][mid])
}

// writeJSONAtomic marshals v to path via tmp+rename.
func writeJSONAtomic(path string, v any) error {
	data, err := jsonMarshal(v)
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}
