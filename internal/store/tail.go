package store

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"

	"phasebeat/internal/trace"
)

// The tail log is the store's crash-durability layer for the not-yet-
// sealed block: every accepted packet is appended to tail.pblog (and
// flushed to the kernel) before it lands in the in-memory block buffer.
// Sealed blocks and the tier index are written with tmp+rename and are
// therefore never partial; the tail is the only file a kill can truncate
// mid-record, so its format is built for truncation — a fixed-size
// header followed by fixed-size packet records, letting recovery keep
// every complete record and discard at most the torn one at the end.
//
//	header: magic "PBTL" | uint16 version | float64 rate |
//	        uint16 antennas | uint16 subcarriers
//	record: trace.AppendRecord — the trace file's packet record
const (
	tailMagic   = "PBTL"
	tailVersion = 1
)

// ErrBadTail reports a tail log whose header is unusable (a truncated
// record body is not an error — it is the expected crash artifact).
var ErrBadTail = errors.New("store: bad tail log")

// tailWriter appends packet records to the session's tail log.
type tailWriter struct {
	f    *os.File
	buf  []byte // one encoded header or record, reused
	ants int
	subs int
}

// newTailWriter truncates path and writes a fresh header.
func newTailWriter(path string, rate float64, ants, subs int) (*tailWriter, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	tw := &tailWriter{f: f, ants: ants, subs: subs}
	if err := tw.reset(rate); err != nil {
		f.Close()
		return nil, err
	}
	return tw, nil
}

// append writes one packet record straight to the kernel. No fsync: the
// durability target is surviving a killed process, not a powered-off
// machine — phasebeatd's deployment contract (DESIGN §14).
func (tw *tailWriter) append(p trace.Packet) error {
	tw.buf = trace.AppendRecord(tw.buf[:0], p)
	_, err := tw.f.Write(tw.buf)
	return err
}

// reset truncates the log back to a fresh header — called after the
// buffered packets it mirrored were sealed into a block.
func (tw *tailWriter) reset(rate float64) error {
	if err := tw.f.Truncate(0); err != nil {
		return err
	}
	if _, err := tw.f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	b := append(tw.buf[:0], tailMagic...)
	b = binary.LittleEndian.AppendUint16(b, tailVersion)
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(rate))
	b = binary.LittleEndian.AppendUint16(b, uint16(tw.ants))
	b = binary.LittleEndian.AppendUint16(b, uint16(tw.subs))
	tw.buf = b
	_, err := tw.f.Write(b)
	return err
}

func (tw *tailWriter) close() error {
	if tw == nil {
		return nil
	}
	return tw.f.Close()
}

// readTail decodes a tail log, keeping every complete packet record. A
// torn trailing record is reported through partial=true, never as an
// error; an unusable header is ErrBadTail and the whole tail is lost.
func readTail(r io.Reader) (rate float64, pkts []trace.Packet, partial bool, err error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(tailMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return 0, nil, false, fmt.Errorf("%w: magic: %v", ErrBadTail, err)
	}
	if string(magic) != tailMagic {
		return 0, nil, false, fmt.Errorf("%w: magic %q", ErrBadTail, magic)
	}
	var hdr [14]byte // version u16, rate f64, ants u16, subs u16
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return 0, nil, false, fmt.Errorf("%w: header: %v", ErrBadTail, err)
	}
	if v := binary.LittleEndian.Uint16(hdr[:2]); v != tailVersion {
		return 0, nil, false, fmt.Errorf("%w: version %d (supported: %d)", ErrBadTail, v, tailVersion)
	}
	rate = math.Float64frombits(binary.LittleEndian.Uint64(hdr[2:10]))
	ants := int(binary.LittleEndian.Uint16(hdr[10:12]))
	subs := int(binary.LittleEndian.Uint16(hdr[12:14]))
	if ants < 1 || ants > trace.MaxAntennas || subs < 1 || subs > trace.MaxSubcarriers {
		return 0, nil, false, fmt.Errorf("%w: shape %d×%d outside [1, %d]×[1, %d]",
			ErrBadTail, ants, subs, trace.MaxAntennas, trace.MaxSubcarriers)
	}
	rec := make([]byte, trace.RecordSize(ants, subs))
	for {
		_, rerr := io.ReadFull(br, rec)
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			// Torn trailing record (or an I/O error mid-read): keep what
			// decoded cleanly, flag the partial.
			return rate, pkts, true, nil
		}
		pkts = append(pkts, trace.DecodeRecord(ants, subs, rec))
	}
	return rate, pkts, false, nil
}
