package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"testing"
)

// hostileHeader builds a syntactically valid binary header with arbitrary
// field values and no payload.
func hostileHeader(antennas, subcarriers uint16, count uint32) []byte {
	var buf bytes.Buffer
	buf.WriteString(formatMagic)
	binary.Write(&buf, binary.LittleEndian, struct {
		Version              uint16
		Rate, Carrier        float64
		Antennas, Subcarrier uint16
		Count                uint32
	}{
		Version:    formatVersion,
		Rate:       400,
		Carrier:    5.32e9,
		Antennas:   antennas,
		Subcarrier: subcarriers,
		Count:      count,
	})
	return buf.Bytes()
}

// TestReadRejectsHostileCount feeds Read headers that claim billions of
// packets with no payload behind them. The decode must fail fast with
// ErrBadFormat and must not pre-allocate storage proportional to the
// claimed count.
func TestReadRejectsHostileCount(t *testing.T) {
	cases := []struct {
		name                 string
		antennas, subcarrier uint16
		count                uint32
	}{
		{"max count small packets", 3, 30, 0xFFFFFFFF},
		{"max count max shape", 0xFFFF, 0xFFFF, 0xFFFFFFFF},
		{"plausible count no payload", 3, 30, 1 << 20},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data := hostileHeader(tc.antennas, tc.subcarrier, tc.count)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := Read(bytes.NewReader(data))
			runtime.ReadMemStats(&after)
			if !errors.Is(err, ErrBadFormat) {
				t.Fatalf("want ErrBadFormat, got %v", err)
			}
			// The claimed payloads run to gigabytes; a decode that trusts the
			// header allocates the packet slice up front. Allow generous
			// slack for the runtime itself.
			if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<20 {
				t.Fatalf("hostile header drove %d MiB of allocation", grew>>20)
			}
		})
	}
}

// TestReadRejectsHostileShape feeds Read single-packet headers with no
// body. A shape past the record bound must be refused from the header
// alone, and the largest shape the bound admits must cost no more than
// its one record buffer: Read sizes the record and the packet from the
// header before it reads a byte of the body.
func TestReadRejectsHostileShape(t *testing.T) {
	for _, shape := range [][2]uint16{{0xFFFF, 0xFFFF}, {1, maxRecordCells}} {
		data := hostileHeader(shape[0], shape[1], 1)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Read(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrBadFormat) {
			t.Fatalf("%d×%d: want ErrBadFormat, got %v", shape[0], shape[1], err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 4<<20 {
			t.Fatalf("%d×%d: header with no body drove %d KiB of allocation", shape[0], shape[1], grew>>10)
		}
	}
}

func TestReadRejectsZeroShape(t *testing.T) {
	if _, err := Read(bytes.NewReader(hostileHeader(0, 30, 1))); !errors.Is(err, ErrBadFormat) {
		t.Errorf("zero antennas: want ErrBadFormat, got %v", err)
	}
	if _, err := Read(bytes.NewReader(hostileHeader(3, 0, 1))); !errors.Is(err, ErrBadFormat) {
		t.Errorf("zero subcarriers: want ErrBadFormat, got %v", err)
	}
}
