package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// Binary format:
//
//	magic "PBTR" | uint16 version | float64 rate | float64 carrier |
//	uint16 antennas | uint16 subcarriers | uint32 packet count |
//	packets: one record each (AppendRecord)
const (
	formatMagic   = "PBTR"
	formatVersion = 1
)

// ErrBadFormat reports a malformed or truncated binary trace.
var ErrBadFormat = errors.New("trace: bad format")

// maxPreallocBytes bounds how much packet storage Read reserves up front
// on the strength of the (untrusted) header count alone.
const maxPreallocBytes = 1 << 20

// maxRecordCells bounds the cells of one record so that a record, and the
// packet decoded from it, fit maxPreallocBytes: Read sizes both from the
// untrusted header before it reads a byte of the body. Validate enforces
// the same bound, so Write never produces a file Read refuses.
const maxRecordCells = (maxPreallocBytes - 8) / 16

// MaxAntennas and MaxSubcarriers bound the per-packet CSI shape the
// store's tail log and the fleet ingest frame accept (the Intel 5300 has
// 3×30; generous headroom only). A record at the bound is 65 544 bytes.
const (
	MaxAntennas    = 16
	MaxSubcarriers = 256
)

// The CSI record layout every binary format shares — the trace file, the
// store's tail log and (cells only) the fleet ingest frame:
//
//	record: float64 time | cells
//	cells:  antennas×subcarriers × (float64 re, float64 im), antenna-major
//
// all little-endian.

// CSISize is the encoded size of an antennas×subcarriers cell matrix.
func CSISize(antennas, subcarriers int) int { return antennas * subcarriers * 16 }

// RecordSize is the encoded size of one record: the time, then the cells.
func RecordSize(antennas, subcarriers int) int { return 8 + CSISize(antennas, subcarriers) }

// AppendCSI appends the cells of csi to b.
func AppendCSI(b []byte, csi [][]complex128) []byte {
	for _, row := range csi {
		for _, c := range row {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(real(c)))
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(imag(c)))
		}
	}
	return b
}

// AppendRecord appends p to b as one record.
func AppendRecord(b []byte, p Packet) []byte {
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(p.Time))
	return AppendCSI(b, p.CSI)
}

// DecodeCSI returns a NewPacket at time t whose cells are decoded from b,
// which must hold CSISize(antennas, subcarriers) bytes.
func DecodeCSI(t float64, antennas, subcarriers int, b []byte) Packet {
	p := NewPacket(t, antennas, subcarriers)
	for _, row := range p.CSI {
		for s := range row {
			row[s] = complex(math.Float64frombits(binary.LittleEndian.Uint64(b)),
				math.Float64frombits(binary.LittleEndian.Uint64(b[8:])))
			b = b[16:]
		}
	}
	return p
}

// DecodeRecord decodes one record from b, which must hold
// RecordSize(antennas, subcarriers) bytes.
func DecodeRecord(antennas, subcarriers int, b []byte) Packet {
	t := math.Float64frombits(binary.LittleEndian.Uint64(b))
	return DecodeCSI(t, antennas, subcarriers, b[8:])
}

// Write encodes the trace to w in the PhaseBeat binary format.
func Write(w io.Writer, t *Trace) error {
	if err := t.Validate(); err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(formatMagic); err != nil {
		return fmt.Errorf("trace: write magic: %w", err)
	}
	hdr := struct {
		Version              uint16
		Rate, Carrier        float64
		Antennas, Subcarrier uint16
		Count                uint32
	}{
		Version:    formatVersion,
		Rate:       t.SampleRate,
		Carrier:    t.CarrierHz,
		Antennas:   uint16(t.NumAntennas),
		Subcarrier: uint16(t.NumSubcarriers),
		Count:      uint32(len(t.Packets)),
	}
	if err := binary.Write(bw, binary.LittleEndian, &hdr); err != nil {
		return fmt.Errorf("trace: write header: %w", err)
	}
	rec := make([]byte, 0, RecordSize(t.NumAntennas, t.NumSubcarriers))
	for _, p := range t.Packets {
		rec = AppendRecord(rec[:0], p)
		if _, err := bw.Write(rec); err != nil {
			return fmt.Errorf("trace: write packet: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("trace: flush: %w", err)
	}
	statTracesWritten.Inc()
	statPacketsWritten.Add(uint64(len(t.Packets)))
	return nil
}

// Read decodes a trace previously written with Write.
func Read(r io.Reader) (*Trace, error) {
	t, err := readBinary(r)
	if err != nil {
		statDecodeErrors.Inc()
		return nil, err
	}
	statTracesRead.Inc()
	statPacketsRead.Add(uint64(len(t.Packets)))
	return t, nil
}

func readBinary(r io.Reader) (*Trace, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(formatMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("%w: magic: %v", ErrBadFormat, err)
	}
	if string(magic) != formatMagic {
		return nil, fmt.Errorf("%w: magic %q", ErrBadFormat, magic)
	}
	var hdr struct {
		Version              uint16
		Rate, Carrier        float64
		Antennas, Subcarrier uint16
		Count                uint32
	}
	if err := binary.Read(br, binary.LittleEndian, &hdr); err != nil {
		return nil, fmt.Errorf("%w: header: %v", ErrBadFormat, err)
	}
	if hdr.Version != formatVersion {
		return nil, fmt.Errorf("%w: version %d (supported: %d)", ErrBadFormat, hdr.Version, formatVersion)
	}
	// Write only ever produces validated traces, so a zero antenna or
	// subcarrier count is corruption (and would make the packet loop read
	// nothing per packet), as is a record past maxRecordCells.
	ants, subs := int(hdr.Antennas), int(hdr.Subcarrier)
	if ants == 0 || subs == 0 || subs > maxRecordCells/ants {
		return nil, fmt.Errorf("%w: %d antennas, %d subcarriers", ErrBadFormat, ants, subs)
	}
	// The header count is untrusted: a corrupt or hostile file can claim
	// up to 4 billion packets while carrying none. Pre-allocate only what
	// a modest read-ahead budget covers and let append grow the rest, so
	// memory tracks the bytes actually read, never the claimed count.
	rec := make([]byte, RecordSize(ants, subs))
	prealloc := min(int64(hdr.Count), int64(maxPreallocBytes/len(rec)))
	t := &Trace{
		SampleRate:     hdr.Rate,
		CarrierHz:      hdr.Carrier,
		NumAntennas:    ants,
		NumSubcarriers: subs,
		Packets:        make([]Packet, 0, prealloc),
	}
	for i := uint32(0); i < hdr.Count; i++ {
		if _, err := io.ReadFull(br, rec); err != nil {
			return nil, fmt.Errorf("%w: packet %d: %v", ErrBadFormat, i, err)
		}
		t.Packets = append(t.Packets, DecodeRecord(ants, subs, rec))
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}
