package fleet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"phasebeat/internal/core"
	"phasebeat/internal/trace"
)

// The phasebeatd wire protocol: length-prefixed binary frames over a
// byte stream (TCP or unix socket), little-endian like internal/trace's
// file codec, and hardened the same way — every length is checked against
// a hard bound before any allocation, so a hostile peer cannot make the
// daemon reserve gigabytes with a four-byte header.
//
//	frame   := type(uint8) length(uint32 LE) payload[length]
//
// Client → server frame payloads:
//
//	open      := key sampleRate(f64) antennas(u8) subcarriers(u16)
//	             window(f64) stride(f64) persons(u8)
//	ingest    := key time(f64) antennas(u8) subcarriers(u16)
//	             cells (trace.AppendCSI) [sendUnixNanos(u64)]
//	close     := key
//	subscribe := key since(u64) waitMillis(u32)
//	key       := len(u16) bytes[len]
//
// Server → client payloads:
//
//	ok     := key
//	error  := message bytes (no length prefix; the frame length bounds it)
//	update := key seq(u64) time(f64) flags(u8) breathingBPM(f64)
//	          heartBPM(f64) health err
//	health := 8 × u64 counters   (field order below)
//	err    := len(u16) message bytes
//
// flags bit0 = breathing estimate present, bit1 = heart estimate present,
// bit2 = update itself carries an error (err non-empty).
//
// The trailing sendUnixNanos field on ingest is the latency-span
// protocol rev: a peer that stamps its wall-clock send time appends it
// after the cells; a peer that does not omits it entirely. The decoder
// accepts both sizes, so pre-rev feeders keep working unchanged, and
// the encoder writes the field only when the timestamp is nonzero —
// zero canonicalizes to the legacy form, keeping encode∘decode a fixed
// point for the fuzz harness.
const (
	frameOpen      = 0x01
	frameIngest    = 0x02
	frameClose     = 0x03
	frameSubscribe = 0x04

	frameOK     = 0x80
	frameError  = 0x81
	frameUpdate = 0x82
)

// Hardening bounds. A frame that exceeds any of them is a protocol
// error: the connection is dropped rather than the allocation attempted.
const (
	// MaxKeyLen bounds session-key length in bytes.
	MaxKeyLen = 128
	// MaxFramePayload bounds a whole frame payload — the same 1 MiB
	// prealloc budget trace.Read enforces.
	MaxFramePayload = 1 << 20
)

// ErrBadFrame reports a malformed or hostile frame.
var ErrBadFrame = errors.New("fleet: bad frame")

// openRequest is a decoded frameOpen payload.
type openRequest struct {
	Key     string
	Session SessionConfig
}

// subscribeRequest is a decoded frameSubscribe payload.
type subscribeRequest struct {
	Key        string
	Since      uint64
	WaitMillis uint32
}

// writeFrame emits one frame. The payload must already respect
// MaxFramePayload; oversize payloads are refused, not truncated.
func writeFrame(w io.Writer, typ byte, payload []byte) error {
	if len(payload) > MaxFramePayload {
		return fmt.Errorf("%w: payload %d bytes exceeds %d", ErrBadFrame, len(payload), MaxFramePayload)
	}
	var hdr [5]byte
	hdr[0] = typ
	binary.LittleEndian.PutUint32(hdr[1:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// readFrame reads one frame, enforcing the payload bound before
// allocating. buf is reused across calls when large enough.
func readFrame(r io.Reader, buf []byte) (typ byte, payload []byte, err error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[1:])
	if n > MaxFramePayload {
		return 0, nil, fmt.Errorf("%w: declared payload %d bytes exceeds %d", ErrBadFrame, n, MaxFramePayload)
	}
	if uint32(cap(buf)) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return 0, nil, fmt.Errorf("fleet: short frame payload: %w", err)
	}
	return hdr[0], buf, nil
}

// cursor walks a frame payload with bounds-checked reads.
type cursor struct {
	b []byte
	p int
}

func (c *cursor) remaining() int { return len(c.b) - c.p }

func (c *cursor) u8() (byte, error) {
	if c.remaining() < 1 {
		return 0, fmt.Errorf("%w: truncated u8", ErrBadFrame)
	}
	v := c.b[c.p]
	c.p++
	return v, nil
}

func (c *cursor) u16() (uint16, error) {
	if c.remaining() < 2 {
		return 0, fmt.Errorf("%w: truncated u16", ErrBadFrame)
	}
	v := binary.LittleEndian.Uint16(c.b[c.p:])
	c.p += 2
	return v, nil
}

func (c *cursor) u32() (uint32, error) {
	if c.remaining() < 4 {
		return 0, fmt.Errorf("%w: truncated u32", ErrBadFrame)
	}
	v := binary.LittleEndian.Uint32(c.b[c.p:])
	c.p += 4
	return v, nil
}

func (c *cursor) u64() (uint64, error) {
	if c.remaining() < 8 {
		return 0, fmt.Errorf("%w: truncated u64", ErrBadFrame)
	}
	v := binary.LittleEndian.Uint64(c.b[c.p:])
	c.p += 8
	return v, nil
}

func (c *cursor) f64() (float64, error) {
	v, err := c.u64()
	return math.Float64frombits(v), err
}

func (c *cursor) key() (string, error) {
	n, err := c.u16()
	if err != nil {
		return "", err
	}
	if n == 0 || n > MaxKeyLen {
		return "", fmt.Errorf("%w: key length %d outside [1, %d]", ErrBadFrame, n, MaxKeyLen)
	}
	if c.remaining() < int(n) {
		return "", fmt.Errorf("%w: truncated key", ErrBadFrame)
	}
	k := string(c.b[c.p : c.p+int(n)])
	c.p += int(n)
	return k, nil
}

// done errors unless the payload was consumed exactly — trailing bytes
// mean a confused (or probing) peer.
func (c *cursor) done() error {
	if c.remaining() != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrBadFrame, c.remaining())
	}
	return nil
}

// appendKey appends a length-prefixed key.
func appendKey(b []byte, key string) []byte {
	b = binary.LittleEndian.AppendUint16(b, uint16(len(key)))
	return append(b, key...)
}

func appendF64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

// encodeOpen builds a frameOpen payload.
func encodeOpen(key string, sc SessionConfig) []byte {
	b := appendKey(nil, key)
	b = appendF64(b, sc.SampleRate)
	b = append(b, byte(sc.NumAntennas))
	b = binary.LittleEndian.AppendUint16(b, uint16(sc.NumSubcarriers))
	b = appendF64(b, sc.WindowSeconds)
	b = appendF64(b, sc.UpdateEverySeconds)
	b = append(b, byte(sc.Persons))
	return b
}

// decodeOpen parses a frameOpen payload, validating the declared shape.
func decodeOpen(payload []byte) (openRequest, error) {
	c := cursor{b: payload}
	var req openRequest
	var err error
	if req.Key, err = c.key(); err != nil {
		return req, err
	}
	if req.Session.SampleRate, err = c.f64(); err != nil {
		return req, err
	}
	ants, err := c.u8()
	if err != nil {
		return req, err
	}
	subs, err := c.u16()
	if err != nil {
		return req, err
	}
	if req.Session.WindowSeconds, err = c.f64(); err != nil {
		return req, err
	}
	if req.Session.UpdateEverySeconds, err = c.f64(); err != nil {
		return req, err
	}
	persons, err := c.u8()
	if err != nil {
		return req, err
	}
	if err := c.done(); err != nil {
		return req, err
	}
	if int(ants) > trace.MaxAntennas || int(subs) > trace.MaxSubcarriers {
		return req, fmt.Errorf("%w: declared shape %d×%d exceeds %d×%d",
			ErrBadFrame, ants, subs, trace.MaxAntennas, trace.MaxSubcarriers)
	}
	req.Session.NumAntennas = int(ants)
	req.Session.NumSubcarriers = int(subs)
	req.Session.Persons = int(persons)
	if !finiteNonNegative(req.Session.SampleRate) ||
		!finiteNonNegative(req.Session.WindowSeconds) ||
		!finiteNonNegative(req.Session.UpdateEverySeconds) {
		return req, fmt.Errorf("%w: non-finite or negative session parameter", ErrBadFrame)
	}
	return req, nil
}

func finiteNonNegative(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0) && v >= 0
}

// encodeIngest builds a frameIngest payload for one packet. sendNanos,
// when nonzero, is appended as the optional trailing send-timestamp
// field (Unix nanos); zero emits the legacy payload byte-for-byte.
func encodeIngest(key string, p trace.Packet, sendNanos int64) ([]byte, error) {
	ants := len(p.CSI)
	if ants == 0 || ants > trace.MaxAntennas {
		return nil, fmt.Errorf("%w: packet has %d antennas", ErrBadFrame, ants)
	}
	subs := len(p.CSI[0])
	if subs == 0 || subs > trace.MaxSubcarriers {
		return nil, fmt.Errorf("%w: packet has %d subcarriers", ErrBadFrame, subs)
	}
	for _, row := range p.CSI {
		if len(row) != subs {
			return nil, fmt.Errorf("%w: ragged packet rows", ErrBadFrame)
		}
	}
	b := make([]byte, 0, 2+len(key)+8+3+trace.CSISize(ants, subs)+8)
	b = appendKey(b, key)
	b = appendF64(b, p.Time)
	b = append(b, byte(ants))
	b = binary.LittleEndian.AppendUint16(b, uint16(subs))
	b = trace.AppendCSI(b, p.CSI)
	if sendNanos != 0 {
		b = binary.LittleEndian.AppendUint64(b, uint64(sendNanos))
	}
	return b, nil
}

// decodeIngest parses a frameIngest payload into a freshly allocated
// packet. The cell count is validated against both the shape bounds and
// the actual payload size before the packet slab is allocated. The
// returned sendNanos is the peer's optional send timestamp (0 when the
// legacy, timestamp-less form was sent).
func decodeIngest(payload []byte) (string, trace.Packet, int64, error) {
	c := cursor{b: payload}
	key, err := c.key()
	if err != nil {
		return "", trace.Packet{}, 0, err
	}
	t, err := c.f64()
	if err != nil {
		return "", trace.Packet{}, 0, err
	}
	ants, err := c.u8()
	if err != nil {
		return "", trace.Packet{}, 0, err
	}
	subs, err := c.u16()
	if err != nil {
		return "", trace.Packet{}, 0, err
	}
	if ants == 0 || int(ants) > trace.MaxAntennas || subs == 0 || int(subs) > trace.MaxSubcarriers {
		return "", trace.Packet{}, 0, fmt.Errorf("%w: packet shape %d×%d outside (0, %d]×(0, %d]",
			ErrBadFrame, ants, subs, trace.MaxAntennas, trace.MaxSubcarriers)
	}
	size := trace.CSISize(int(ants), int(subs))
	hasSend := false
	switch c.remaining() {
	case size:
	case size + 8:
		hasSend = true
	default:
		return "", trace.Packet{}, 0, fmt.Errorf("%w: %d payload bytes for %d cells",
			ErrBadFrame, c.remaining(), int(ants)*int(subs))
	}
	p := trace.DecodeCSI(t, int(ants), int(subs), c.b[c.p:c.p+size])
	c.p += size
	var sendNanos int64
	if hasSend {
		v, err := c.u64()
		if err != nil {
			return "", trace.Packet{}, 0, err
		}
		sendNanos = int64(v)
	}
	return key, p, sendNanos, c.done()
}

// encodeClose builds a frameClose payload.
func encodeClose(key string) []byte { return appendKey(nil, key) }

// decodeClose parses a frameClose payload.
func decodeClose(payload []byte) (string, error) {
	c := cursor{b: payload}
	key, err := c.key()
	if err != nil {
		return "", err
	}
	return key, c.done()
}

// encodeSubscribe builds a frameSubscribe payload.
func encodeSubscribe(key string, since uint64, wait uint32) []byte {
	b := appendKey(nil, key)
	b = binary.LittleEndian.AppendUint64(b, since)
	return binary.LittleEndian.AppendUint32(b, wait)
}

// decodeSubscribe parses a frameSubscribe payload.
func decodeSubscribe(payload []byte) (subscribeRequest, error) {
	c := cursor{b: payload}
	var req subscribeRequest
	var err error
	if req.Key, err = c.key(); err != nil {
		return req, err
	}
	if req.Since, err = c.u64(); err != nil {
		return req, err
	}
	if req.WaitMillis, err = c.u32(); err != nil {
		return req, err
	}
	return req, c.done()
}

// Update flags.
const (
	updateHasBreathing = 1 << 0
	updateHasHeart     = 1 << 1
	updateHasError     = 1 << 2
)

// UpdateFrame is the wire form of one session update: the estimates and
// health counters a remote subscriber needs, without the full Result
// graph.
type UpdateFrame struct {
	Key          string
	Seq          uint64
	Time         float64
	BreathingBPM float64 // valid when HasBreathing
	HeartBPM     float64 // valid when HasHeart
	HasBreathing bool
	HasHeart     bool
	Err          string
	Health       core.Health
}

// snapshotFrame converts a session Snapshot to its wire form.
func snapshotFrame(key string, snap Snapshot) UpdateFrame {
	uf := UpdateFrame{
		Key:    key,
		Seq:    snap.Seq,
		Time:   snap.Update.Time,
		Health: snap.Update.Health,
	}
	if r := snap.Update.Result; r != nil {
		if r.Breathing != nil {
			uf.HasBreathing = true
			uf.BreathingBPM = r.Breathing.RateBPM
		}
		if r.Heart != nil {
			uf.HasHeart = true
			uf.HeartBPM = r.Heart.RateBPM
		}
	}
	if snap.Update.Err != nil {
		uf.Err = snap.Update.Err.Error()
	}
	return uf
}

// encodeUpdate builds a frameUpdate payload.
func encodeUpdate(uf UpdateFrame) []byte {
	var flags byte
	if uf.HasBreathing {
		flags |= updateHasBreathing
	}
	if uf.HasHeart {
		flags |= updateHasHeart
	}
	if uf.Err != "" {
		flags |= updateHasError
	}
	b := appendKey(nil, uf.Key)
	b = binary.LittleEndian.AppendUint64(b, uf.Seq)
	b = appendF64(b, uf.Time)
	b = append(b, flags)
	b = appendF64(b, uf.BreathingBPM)
	b = appendF64(b, uf.HeartBPM)
	b = appendHealth(b, uf.Health)
	msg := uf.Err
	if len(msg) > math.MaxUint16 {
		msg = msg[:math.MaxUint16]
	}
	b = binary.LittleEndian.AppendUint16(b, uint16(len(msg)))
	return append(b, msg...)
}

// decodeUpdate parses a frameUpdate payload.
func decodeUpdate(payload []byte) (UpdateFrame, error) {
	c := cursor{b: payload}
	var uf UpdateFrame
	var err error
	if uf.Key, err = c.key(); err != nil {
		return uf, err
	}
	if uf.Seq, err = c.u64(); err != nil {
		return uf, err
	}
	if uf.Time, err = c.f64(); err != nil {
		return uf, err
	}
	flags, err := c.u8()
	if err != nil {
		return uf, err
	}
	uf.HasBreathing = flags&updateHasBreathing != 0
	uf.HasHeart = flags&updateHasHeart != 0
	if uf.BreathingBPM, err = c.f64(); err != nil {
		return uf, err
	}
	if uf.HeartBPM, err = c.f64(); err != nil {
		return uf, err
	}
	if uf.Health, err = readHealth(&c); err != nil {
		return uf, err
	}
	n, err := c.u16()
	if err != nil {
		return uf, err
	}
	if c.remaining() < int(n) {
		return uf, fmt.Errorf("%w: truncated error message", ErrBadFrame)
	}
	if flags&updateHasError != 0 {
		uf.Err = string(c.b[c.p : c.p+int(n)])
	}
	c.p += int(n)
	return uf, c.done()
}

// appendHealth serializes the Health counters in declaration order.
func appendHealth(b []byte, h core.Health) []byte {
	for _, v := range []uint64{
		h.Accepted, h.QuarantinedMalformed, h.QuarantinedNonFinite,
		h.QuarantinedNonMonotonic, h.GapResets, h.PacketsDropped,
		h.UpdatesReplaced, h.ObserverPanics,
	} {
		b = binary.LittleEndian.AppendUint64(b, v)
	}
	return b
}

// readHealth parses the counters appendHealth wrote.
func readHealth(c *cursor) (core.Health, error) {
	var h core.Health
	fields := []*uint64{
		&h.Accepted, &h.QuarantinedMalformed, &h.QuarantinedNonFinite,
		&h.QuarantinedNonMonotonic, &h.GapResets, &h.PacketsDropped,
		&h.UpdatesReplaced, &h.ObserverPanics,
	}
	for _, f := range fields {
		v, err := c.u64()
		if err != nil {
			return h, err
		}
		*f = v
	}
	return h, nil
}
