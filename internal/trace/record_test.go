package trace

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"
)

// goldenPacket is the 2×3 packet the layout tests of every format that
// carries a CSI record encode (the trace file here, the store's tail log
// and the fleet ingest frame in their packages).
func goldenPacket() Packet {
	p := NewPacket(0.5, 2, 3)
	for a := range p.CSI {
		for s := range p.CSI[a] {
			p.CSI[a][s] = complex(float64(a+1), -0.25*float64(s))
		}
	}
	return p
}

// goldenCells is goldenPacket's cells as every format lays them out.
const goldenCells = "000000000000f03f0000000000000080000000000000f03f000000000000d0bf000000000000f03f000000000000e0bf000000000000004000000000000000800000000000000040000000000000d0bf0000000000000040000000000000e0bf"

// TestTraceFileLayoutGolden pins the PBTR byte layout: header, then
// time f64 and antenna-major (re, im) f64 cells, all little-endian.
func TestTraceFileLayoutGolden(t *testing.T) {
	const want = "50425452" + "0100" + "0000000000007940" + "000000208cd1f341" + // magic, version, rate, carrier
		"0200" + "0300" + "01000000" + // antennas, subcarriers, count
		"000000000000e03f" + // time
		goldenCells
	tr := &Trace{SampleRate: 400, NumAntennas: 2, NumSubcarriers: 3, CarrierHz: 5.32e9,
		Packets: []Packet{goldenPacket()}}
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(buf.Bytes()); got != want {
		t.Fatalf("PBTR layout changed:\n got %s\nwant %s", got, want)
	}
}

// FuzzPacketRecord round-trips one record of every shape within the shape
// bounds. The cells are the input bytes, cycled to fill the shape, so NaN
// payloads, infinities and signed zeros all occur: decoding them and
// encoding the packet again must give back every byte, in exactly
// RecordSize bytes, and decoding that record must give back every bit.
func FuzzPacketRecord(f *testing.F) {
	f.Add(uint8(1), uint16(2), 0.5, []byte{})
	f.Add(uint8(2), uint16(29), math.Inf(-1), []byte{0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0xf8, 0x7f})
	f.Add(uint8(MaxAntennas-1), uint16(MaxSubcarriers-1), math.NaN(), []byte{0x80})
	f.Fuzz(func(t *testing.T, a uint8, s uint16, tm float64, cells []byte) {
		ants, subs := 1+int(a)%MaxAntennas, 1+int(s)%MaxSubcarriers
		raw := make([]byte, CSISize(ants, subs))
		for i := range raw {
			if len(cells) > 0 {
				raw[i] = cells[i%len(cells)]
			}
		}
		p := DecodeCSI(tm, ants, subs, raw)
		rec := AppendRecord(nil, p)
		if len(rec) != RecordSize(ants, subs) {
			t.Fatalf("%d×%d record is %d bytes, want %d", ants, subs, len(rec), RecordSize(ants, subs))
		}
		if binary.LittleEndian.Uint64(rec) != math.Float64bits(tm) || !bytes.Equal(rec[8:], raw) {
			t.Fatalf("%d×%d: decode then encode changed the bytes", ants, subs)
		}
		q := DecodeRecord(ants, subs, rec)
		if math.Float64bits(q.Time) != math.Float64bits(tm) || len(q.CSI) != ants {
			t.Fatalf("%d×%d: decoded time %v, %d rows", ants, subs, q.Time, len(q.CSI))
		}
		for i := range q.CSI {
			if len(q.CSI[i]) != subs {
				t.Fatalf("%d×%d: row %d has %d cells", ants, subs, i, len(q.CSI[i]))
			}
			for j, c := range q.CSI[i] {
				w := p.CSI[i][j]
				if math.Float64bits(real(c)) != math.Float64bits(real(w)) ||
					math.Float64bits(imag(c)) != math.Float64bits(imag(w)) {
					t.Fatalf("%d×%d: cell (%d,%d) = %v, want %v", ants, subs, i, j, c, w)
				}
			}
		}
	})
}
