package store

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"

	"phasebeat/internal/core"
	"phasebeat/internal/trace"
)

// RawTier is the tier name selecting undecimated packet samples in a
// range query. Raw is never auto-picked: reading sealed blocks is the
// expensive path and must be asked for by name.
const RawTier = "raw"

// SessionInfo summarizes one stored session for the /store/sessions
// listing.
type SessionInfo struct {
	Key     string  `json:"key"`
	Meta    Meta    `json:"meta"`
	Blocks  int     `json:"blocks"`
	Bytes   int64   `json:"bytes"`
	Packets int     `json:"packets"` // packets in the unsealed tail buffer
	From    float64 `json:"from"`    // oldest retained trace time
	To      float64 `json:"to"`      // newest trace time
	LastBPM float64 `json:"last_bpm,omitempty"`
	Open    bool    `json:"open"` // accepting appends
}

// Sample is one raw-tier waveform sample.
type Sample struct {
	T float64 `json:"t"`
	V float64 `json:"v"`
}

// RangeResult is the answer to a range query: either downsample bins
// (tier queries) or raw samples (tier "raw").
type RangeResult struct {
	Session string  `json:"session"`
	From    float64 `json:"from"`
	To      float64 `json:"to"`
	// Tier is the resolution that answered the query ("60s", "raw", ...) —
	// for auto-picked queries, the cheapest tier covering the span.
	Tier      string    `json:"tier"`
	Wave      []TierBin `json:"wave,omitempty"`
	Breathing []TierBin `json:"breathing,omitempty"`
	Heart     []TierBin `json:"heart,omitempty"`
	Samples   []Sample  `json:"samples,omitempty"`
	// BlocksRead counts sealed block files decoded to answer the query —
	// zero for every tier query, the point of the tier index.
	BlocksRead int `json:"blocks_read"`
}

// Sessions lists the stored sessions sorted by key.
func (s *Store) Sessions() []SessionInfo {
	s.mu.Lock()
	sess := make([]*sessionStore, 0, len(s.sessions))
	for _, ss := range s.sessions {
		sess = append(sess, ss)
	}
	s.mu.Unlock()
	out := make([]SessionInfo, 0, len(sess))
	for _, ss := range sess {
		ss.mu.Lock()
		info := SessionInfo{
			Key:     ss.key,
			Meta:    ss.meta,
			Blocks:  len(ss.blocks),
			Packets: len(ss.buf),
			Open:    !ss.sealed,
		}
		for _, bi := range ss.blocks {
			info.Bytes += bi.bytes
		}
		info.From, info.To = ss.spanLocked()
		if bpm, ok := ss.tiers.lastBreath(); ok {
			info.LastBPM = bpm
		}
		ss.mu.Unlock()
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// spanLocked returns the retained trace-time extent. Caller holds ss.mu.
func (ss *sessionStore) spanLocked() (from, to float64) {
	switch {
	case len(ss.blocks) > 0:
		from = ss.blocks[0].t0
		to = ss.blocks[len(ss.blocks)-1].t1
	case len(ss.buf) > 0:
		from = ss.buf[0].Time
	}
	if n := len(ss.buf); n > 0 {
		to = ss.buf[n-1].Time
	}
	return from, to
}

// Meta returns a session's stream metadata.
func (s *Store) Meta(key string) (Meta, error) {
	ss, err := s.session(key)
	if err != nil {
		return Meta{}, err
	}
	ss.mu.Lock()
	defer ss.mu.Unlock()
	return ss.meta, nil
}

// LastBPM returns the most recent breathing estimate recorded for the
// session.
func (s *Store) LastBPM(key string) (float64, bool) {
	ss, err := s.session(key)
	if err != nil {
		return 0, false
	}
	ss.mu.Lock()
	defer ss.mu.Unlock()
	return ss.tiers.lastBreath()
}

// pickTier chooses the cheapest (coarsest) tier that still resolves the
// span: the coarsest duration fitting at least four bins into [from, to),
// falling back to the finest tier for short spans. Raw is never picked
// automatically.
func (s *Store) pickTier(from, to float64) int {
	span := to - from
	best := 0
	for i, d := range s.cfg.TierSeconds {
		if d*4 <= span {
			best = i
		}
	}
	return best
}

// tierIndex resolves a tier label ("10s") to its index.
func (s *Store) tierIndex(label string) (int, error) {
	for i, d := range s.cfg.TierSeconds {
		if TierLabel(d) == label {
			return i, nil
		}
	}
	return 0, fmt.Errorf("%w: %q (have %v, %q)", ErrUnknownTier, label, s.tierLabels(), RawTier)
}

func (s *Store) tierLabels() []string {
	out := make([]string, len(s.cfg.TierSeconds))
	for i, d := range s.cfg.TierSeconds {
		out[i] = TierLabel(d)
	}
	return out
}

// Range answers a range query over [from, to). An empty tier auto-picks
// the cheapest tier resolving the span; tier "raw" decodes sealed blocks
// (and the live tail) into per-packet samples. A to of zero or +Inf means
// "through the newest data".
func (s *Store) Range(key string, from, to float64, tier string) (*RangeResult, error) {
	ss, err := s.session(key)
	if err != nil {
		return nil, err
	}
	ss.mu.Lock()
	if to == 0 || math.IsInf(to, 1) {
		_, newest := ss.spanLocked()
		// Half-open interval: nudge past the newest sample so it is
		// included.
		to = math.Nextafter(newest, math.Inf(1))
	}
	if !(from < to) {
		ss.mu.Unlock()
		return nil, fmt.Errorf("%w: empty range [%v, %v)", ErrBadRange, from, to)
	}
	res := &RangeResult{Session: key, From: from, To: to}
	if tier == RawTier {
		blocks := make([]blockInfo, len(ss.blocks))
		copy(blocks, ss.blocks)
		samples := rawSamples(ss.buf, from, to)
		ss.mu.Unlock()
		return s.rangeRaw(res, blocks, samples)
	}
	defer ss.mu.Unlock()
	idx := -1
	if tier == "" {
		idx = s.pickTier(from, to)
	} else if idx, err = s.tierIndex(tier); err != nil {
		return nil, err
	}
	dur := s.cfg.TierSeconds[idx]
	res.Tier = TierLabel(dur)
	res.Wave = ss.tiers.series[idx][seriesWave].query(dur, from, to)
	res.Breathing = ss.tiers.series[idx][seriesBreath].query(dur, from, to)
	res.Heart = ss.tiers.series[idx][seriesHeart].query(dur, from, to)
	s.tierHits[idx].Inc()
	return res, nil
}

// rangeRaw decodes the sealed blocks overlapping the range. Runs without
// the session lock: blocks are immutable and eviction losing the race
// just surfaces as a shorter answer, the same outcome as querying a
// moment later.
func (s *Store) rangeRaw(res *RangeResult, blocks []blockInfo, tailSamples []Sample) (*RangeResult, error) {
	res.Tier = RawTier
	for _, bi := range blocks {
		if bi.t1 < res.From || bi.t0 >= res.To {
			continue
		}
		tr, err := readBlock(bi.path)
		if err != nil {
			if os.IsNotExist(err) {
				continue // evicted mid-query
			}
			s.blockCorrupt.Inc()
			return nil, fmt.Errorf("store: block %s: %w", bi.path, err)
		}
		res.BlocksRead++
		s.blocksRead.Inc()
		res.Samples = append(res.Samples, rawSamples(tr.Packets, res.From, res.To)...)
	}
	res.Samples = append(res.Samples, tailSamples...)
	s.rawHits.Inc()
	return res, nil
}

// rawSamples reduces the packets inside [from, to) to waveform samples.
func rawSamples(pkts []trace.Packet, from, to float64) []Sample {
	var out []Sample
	for _, p := range pkts {
		if p.Time < from || p.Time >= to {
			continue
		}
		out = append(out, Sample{T: p.Time, V: waveSample(p)})
	}
	return out
}

// Replay streams every retained packet of a session — sealed blocks in
// seal order, then the unsealed tail — through fn in time order. fn
// returning an error stops the replay.
func (s *Store) Replay(key string, fn func(trace.Packet) error) error {
	ss, err := s.session(key)
	if err != nil {
		return err
	}
	ss.mu.Lock()
	blocks := make([]blockInfo, len(ss.blocks))
	copy(blocks, ss.blocks)
	tail := make([]trace.Packet, len(ss.buf))
	copy(tail, ss.buf)
	ss.mu.Unlock()
	for _, bi := range blocks {
		tr, err := readBlock(bi.path)
		if err != nil {
			if os.IsNotExist(err) {
				continue // evicted mid-replay; the stream just starts later
			}
			s.blockCorrupt.Inc()
			return fmt.Errorf("store: block %s: %w", bi.path, err)
		}
		s.blocksRead.Inc()
		for _, p := range tr.Packets {
			if err := fn(p); err != nil {
				return err
			}
		}
	}
	for _, p := range tail {
		if err := fn(p); err != nil {
			return err
		}
	}
	return nil
}

// ReplayThroughMonitor replays a stored session through a fresh Monitor
// built from base overridden by the stored metadata — the same override
// rules the fleet applies when it opens a live session, so a postmortem
// replay reproduces the daemon's estimates. Ingest is lossless (blocking,
// no drop-on-backlog) regardless of base. Returns the final update
// carrying a Result, or an error if the session produced none.
func (s *Store) ReplayThroughMonitor(key string, base core.MonitorConfig) (*core.Update, error) {
	meta, err := s.Meta(key)
	if err != nil {
		return nil, err
	}
	mc := base
	if meta.SampleRate > 0 {
		mc.SampleRate = meta.SampleRate
		mc.Pipeline = mc.Pipeline.ForRate(meta.SampleRate)
	}
	if meta.NumAntennas > 0 {
		mc.NumAntennas = meta.NumAntennas
	}
	if meta.NumSubcarriers > 0 {
		mc.NumSubcarriers = meta.NumSubcarriers
	}
	if meta.WindowSeconds > 0 {
		mc.WindowSeconds = meta.WindowSeconds
	}
	if meta.StrideSeconds > 0 {
		mc.UpdateEverySeconds = meta.StrideSeconds
	}
	if meta.Persons > 0 {
		mc.Persons = meta.Persons
	}
	mc.DropOnBacklog = false
	if mc.IngestBuffer < 64 {
		mc.IngestBuffer = 64
	}
	mon, err := core.NewMonitor(mc)
	if err != nil {
		return nil, fmt.Errorf("store: replay %q: %w", key, err)
	}
	var last, lastAny *core.Update
	done := make(chan struct{})
	go func() {
		defer close(done)
		for u := range mon.Updates() {
			if u.Result == nil {
				continue
			}
			v := u
			lastAny = &v
			// The caller wants the stream's final vital-sign estimate; a
			// trailing errored window (motion, short tail) must not
			// shadow it.
			if u.Result.Breathing != nil || u.Result.Heart != nil || u.Result.MultiPerson != nil {
				last = &v
			}
		}
	}()
	rerr := s.Replay(key, func(p trace.Packet) error {
		mon.Ingest(p)
		return nil
	})
	// Close would abandon packets still queued in the ingest buffer,
	// silently dropping the last ~IngestBuffer/rate seconds of the
	// session — and with it the final strides the live daemon emitted.
	// Drain processes the backlog before stopping.
	mon.Drain()
	<-done
	if rerr != nil {
		return nil, rerr
	}
	if last == nil {
		last = lastAny
	}
	if last == nil {
		return nil, fmt.Errorf("store: replay %q produced no estimates (session shorter than one window?)", key)
	}
	return last, nil
}

// jsonMarshal indents persisted JSON so meta.json stays hand-readable.
func jsonMarshal(v any) ([]byte, error) { return json.MarshalIndent(v, "", "  ") }

// readJSON decodes path into v.
func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, v)
}
