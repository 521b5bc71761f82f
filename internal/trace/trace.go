// Package trace defines the CSI trace container shared by the simulator,
// the PhaseBeat pipeline and the CLI tools, along with its binary, gzip
// and JSON codecs and the CSI record layout every binary format shares.
// It plays the role of the Intel 5300 CSI Tool's .dat capture files in the
// original system.
package trace

import (
	"errors"
	"fmt"
)

// ErrInvalidTrace reports a structurally inconsistent trace.
var ErrInvalidTrace = errors.New("trace: invalid trace")

// Packet is one CSI measurement: the complex channel response of every
// (antenna, subcarrier) pair at a point in time.
type Packet struct {
	// Time is the capture timestamp in seconds from the start of the trace.
	Time float64
	// CSI is indexed [antenna][subcarrier].
	CSI [][]complex128
}

// NewPacket returns a packet whose antenna rows are carved from one flat
// backing slab: two allocations total regardless of the antenna count, and
// rows that are adjacent in memory — the layout the columnar ingest path
// transposes from. Rows are capacity-capped so an append to one cannot
// bleed into its neighbor.
func NewPacket(time float64, antennas, subcarriers int) Packet {
	rows := make([][]complex128, antennas)
	slab := make([]complex128, antennas*subcarriers)
	for a := range rows {
		rows[a] = slab[a*subcarriers : (a+1)*subcarriers : (a+1)*subcarriers]
	}
	return Packet{Time: time, CSI: rows}
}

// Clone returns a deep copy of the packet. The copy's rows share one flat
// backing slab (cumulative offsets handle ragged inputs), so cloning costs
// two allocations instead of one per antenna.
func (p Packet) Clone() Packet {
	total := 0
	for _, row := range p.CSI {
		total += len(row)
	}
	out := Packet{Time: p.Time, CSI: make([][]complex128, len(p.CSI))}
	slab := make([]complex128, total)
	off := 0
	for a, row := range p.CSI {
		dst := slab[off : off+len(row) : off+len(row)]
		copy(dst, row)
		out.CSI[a] = dst
		off += len(row)
	}
	return out
}

// Trace is a sequence of CSI packets captured at a nominal rate.
type Trace struct {
	// SampleRate is the nominal packet rate in Hz.
	SampleRate float64
	// NumAntennas is the receive antenna count.
	NumAntennas int
	// NumSubcarriers is the per-antenna subcarrier count (30 for the
	// Intel 5300).
	NumSubcarriers int
	// CarrierHz is the RF carrier frequency (metadata).
	CarrierHz float64
	// Packets holds the measurements in time order.
	Packets []Packet
}

// Validate checks the structural invariants of the trace.
func (t *Trace) Validate() error {
	if t.SampleRate <= 0 {
		return fmt.Errorf("%w: sample rate %v", ErrInvalidTrace, t.SampleRate)
	}
	if t.NumAntennas < 1 || t.NumSubcarriers < 1 {
		return fmt.Errorf("%w: %d antennas, %d subcarriers", ErrInvalidTrace, t.NumAntennas, t.NumSubcarriers)
	}
	if t.NumSubcarriers > maxRecordCells/t.NumAntennas {
		return fmt.Errorf("%w: %d×%d cells exceed the %d-cell record bound",
			ErrInvalidTrace, t.NumAntennas, t.NumSubcarriers, maxRecordCells)
	}
	last := -1.0
	for i, p := range t.Packets {
		if len(p.CSI) != t.NumAntennas {
			return fmt.Errorf("%w: packet %d has %d antennas, want %d", ErrInvalidTrace, i, len(p.CSI), t.NumAntennas)
		}
		for a, row := range p.CSI {
			if len(row) != t.NumSubcarriers {
				return fmt.Errorf("%w: packet %d antenna %d has %d subcarriers, want %d",
					ErrInvalidTrace, i, a, len(row), t.NumSubcarriers)
			}
		}
		if p.Time < last {
			return fmt.Errorf("%w: packet %d time %v before %v", ErrInvalidTrace, i, p.Time, last)
		}
		last = p.Time
	}
	return nil
}

// Duration returns the time span covered by the trace in seconds.
func (t *Trace) Duration() float64 {
	if len(t.Packets) == 0 {
		return 0
	}
	return t.Packets[len(t.Packets)-1].Time - t.Packets[0].Time
}

// Len returns the packet count.
func (t *Trace) Len() int { return len(t.Packets) }
