package trace

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func randomTrace(rng *rand.Rand, packets, antennas, subcarriers int) *Trace {
	t := &Trace{
		SampleRate:     400,
		NumAntennas:    antennas,
		NumSubcarriers: subcarriers,
		CarrierHz:      5.32e9,
		Packets:        make([]Packet, 0, packets),
	}
	for i := 0; i < packets; i++ {
		p := Packet{Time: float64(i) / 400, CSI: make([][]complex128, antennas)}
		for a := 0; a < antennas; a++ {
			row := make([]complex128, subcarriers)
			for s := range row {
				row[s] = complex(rng.NormFloat64(), rng.NormFloat64())
			}
			p.CSI[a] = row
		}
		t.Packets = append(t.Packets, p)
	}
	return t
}

func tracesEqual(a, b *Trace) bool {
	if a.SampleRate != b.SampleRate || a.NumAntennas != b.NumAntennas ||
		a.NumSubcarriers != b.NumSubcarriers || a.CarrierHz != b.CarrierHz ||
		len(a.Packets) != len(b.Packets) {
		return false
	}
	for i := range a.Packets {
		if a.Packets[i].Time != b.Packets[i].Time {
			return false
		}
		for ant := range a.Packets[i].CSI {
			for s := range a.Packets[i].CSI[ant] {
				if a.Packets[i].CSI[ant][s] != b.Packets[i].CSI[ant][s] {
					return false
				}
			}
		}
	}
	return true
}

func TestValidate(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tr := randomTrace(rng, 5, 2, 30)
	if err := tr.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	bad := randomTrace(rng, 5, 2, 30)
	bad.Packets[2].CSI = bad.Packets[2].CSI[:1]
	if err := bad.Validate(); !errors.Is(err, ErrInvalidTrace) {
		t.Errorf("want ErrInvalidTrace, got %v", err)
	}
	outOfOrder := randomTrace(rng, 5, 2, 30)
	outOfOrder.Packets[3].Time = 0.0001
	if err := outOfOrder.Validate(); !errors.Is(err, ErrInvalidTrace) {
		t.Errorf("want ErrInvalidTrace for time regression, got %v", err)
	}
	zeroRate := randomTrace(rng, 1, 1, 1)
	zeroRate.SampleRate = 0
	if err := zeroRate.Validate(); !errors.Is(err, ErrInvalidTrace) {
		t.Errorf("want ErrInvalidTrace for zero rate, got %v", err)
	}
}

func TestDuration(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	tr := randomTrace(rng, 400, 2, 4)
	if d := tr.Duration(); d <= 0.99 || d >= 1.0 {
		t.Errorf("Duration = %v, want ~0.9975", d)
	}
	var empty Trace
	if empty.Duration() != 0 {
		t.Error("empty trace duration should be 0")
	}
}

func TestPacketClone(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tr := randomTrace(rng, 1, 2, 3)
	c := tr.Packets[0].Clone()
	c.CSI[0][0] = complex(99, 99)
	if tr.Packets[0].CSI[0][0] == complex(99, 99) {
		t.Error("Clone shares backing storage")
	}
	// Rows come from one flat slab but must not bleed into each other: an
	// append that exceeds a row's length has to reallocate, not overwrite
	// the next row.
	row0 := append(c.CSI[0], complex(7, 7))
	_ = row0
	if c.CSI[1][0] == complex(7, 7) {
		t.Error("append to row 0 overwrote row 1 in the shared slab")
	}
}

func TestPacketCloneRagged(t *testing.T) {
	// Clone must survive ragged packets (constructible by hand even though
	// Validate rejects them in traces): cumulative offsets, exact lengths.
	p := Packet{Time: 1.5, CSI: [][]complex128{
		{1, 2, 3},
		{4},
		{},
		{5, 6},
	}}
	c := p.Clone()
	if c.Time != p.Time {
		t.Errorf("Time = %v, want %v", c.Time, p.Time)
	}
	if len(c.CSI) != len(p.CSI) {
		t.Fatalf("antenna count = %d, want %d", len(c.CSI), len(p.CSI))
	}
	for a, row := range p.CSI {
		if len(c.CSI[a]) != len(row) {
			t.Fatalf("antenna %d: len = %d, want %d", a, len(c.CSI[a]), len(row))
		}
		for i, v := range row {
			if c.CSI[a][i] != v {
				t.Errorf("antenna %d sample %d: got %v, want %v", a, i, c.CSI[a][i], v)
			}
		}
	}
}

func TestNewPacketLayout(t *testing.T) {
	p := NewPacket(2.5, 3, 4)
	if p.Time != 2.5 {
		t.Errorf("Time = %v, want 2.5", p.Time)
	}
	if len(p.CSI) != 3 {
		t.Fatalf("antennas = %d, want 3", len(p.CSI))
	}
	for a, row := range p.CSI {
		if len(row) != 4 {
			t.Fatalf("antenna %d subcarriers = %d, want 4", a, len(row))
		}
		if cap(row) != 4 {
			t.Errorf("antenna %d row cap = %d, want 4 (capped against bleed)", a, cap(row))
		}
	}
	// Writes to one row must not show up in its neighbors, and an append
	// past a row's capacity must reallocate rather than clobber the next
	// row of the shared slab.
	p.CSI[1][0] = complex(9, 9)
	if p.CSI[0][3] == complex(9, 9) || p.CSI[2][0] == complex(9, 9) {
		t.Error("rows alias each other")
	}
	_ = append(p.CSI[0], complex(7, 7))
	if p.CSI[1][0] != complex(9, 9) {
		t.Error("append to row 0 overwrote row 1 in the shared slab")
	}
}

// Property: binary codec round-trips arbitrary traces exactly.
func TestCodecRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tr := randomTrace(r, r.Intn(20), 1+r.Intn(3), 1+r.Intn(30))
		var buf bytes.Buffer
		if err := Write(&buf, tr); err != nil {
			return false
		}
		got, err := Read(&buf)
		if err != nil {
			return false
		}
		return tracesEqual(tr, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30, Rand: rng}); err != nil {
		t.Error(err)
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte("not a trace"))); !errors.Is(err, ErrBadFormat) {
		t.Errorf("want ErrBadFormat, got %v", err)
	}
	if _, err := Read(bytes.NewReader(nil)); !errors.Is(err, ErrBadFormat) {
		t.Errorf("want ErrBadFormat for empty, got %v", err)
	}
	// Truncated valid prefix.
	rng := rand.New(rand.NewSource(5))
	tr := randomTrace(rng, 3, 2, 4)
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-10]
	if _, err := Read(bytes.NewReader(trunc)); !errors.Is(err, ErrBadFormat) {
		t.Errorf("want ErrBadFormat for truncation, got %v", err)
	}
}

func TestWriteRejectsInvalid(t *testing.T) {
	var buf bytes.Buffer
	bad := &Trace{SampleRate: -1, NumAntennas: 1, NumSubcarriers: 1}
	if err := Write(&buf, bad); err == nil {
		t.Error("want error for invalid trace")
	}
}

// Property: the JSON codec round-trips arbitrary traces exactly (float64
// survives encoding/json in Go).
func TestJSONRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tr := randomTrace(r, r.Intn(8), 1+r.Intn(3), 1+r.Intn(10))
		var buf bytes.Buffer
		if err := WriteJSON(&buf, tr); err != nil {
			return false
		}
		got, err := ReadJSON(&buf)
		if err != nil {
			return false
		}
		return tracesEqual(tr, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20, Rand: rng}); err != nil {
		t.Error(err)
	}
}

func TestReadJSONRejectsGarbage(t *testing.T) {
	if _, err := ReadJSON(bytes.NewReader([]byte("not json"))); !errors.Is(err, ErrBadFormat) {
		t.Errorf("want ErrBadFormat, got %v", err)
	}
	if _, err := ReadJSON(bytes.NewReader([]byte(`{"format":"other","version":1}`))); !errors.Is(err, ErrBadFormat) {
		t.Errorf("want ErrBadFormat for wrong format name, got %v", err)
	}
	if _, err := ReadJSON(bytes.NewReader([]byte(`{"format":"phasebeat-csi","version":99}`))); !errors.Is(err, ErrBadFormat) {
		t.Errorf("want ErrBadFormat for wrong version, got %v", err)
	}
	// Truncated packet line.
	rng := rand.New(rand.NewSource(15))
	tr := randomTrace(rng, 2, 1, 3)
	var buf bytes.Buffer
	if err := WriteJSON(&buf, tr); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-5]
	if _, err := ReadJSON(bytes.NewReader(trunc)); !errors.Is(err, ErrBadFormat) {
		t.Errorf("want ErrBadFormat for truncation, got %v", err)
	}
}

func TestWriteJSONRejectsInvalid(t *testing.T) {
	var buf bytes.Buffer
	bad := &Trace{SampleRate: 0, NumAntennas: 1, NumSubcarriers: 1}
	if err := WriteJSON(&buf, bad); err == nil {
		t.Error("want error for invalid trace")
	}
}

func TestCompressedRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	tr := randomTrace(rng, 50, 2, 30)
	var buf bytes.Buffer
	if err := WriteCompressed(&buf, tr); err != nil {
		t.Fatalf("WriteCompressed: %v", err)
	}
	var raw bytes.Buffer
	if err := Write(&raw, tr); err != nil {
		t.Fatal(err)
	}
	if buf.Len() >= raw.Len() {
		t.Errorf("gzip did not shrink: %d vs %d bytes", buf.Len(), raw.Len())
	}
	got, err := ReadCompressed(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadCompressed: %v", err)
	}
	if !tracesEqual(tr, got) {
		t.Error("compressed round trip mismatch")
	}
}

func TestReadAutoDetectsAllFormats(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	tr := randomTrace(rng, 5, 2, 6)
	encoders := map[string]func(*bytes.Buffer) error{
		"binary": func(b *bytes.Buffer) error { return Write(b, tr) },
		"json":   func(b *bytes.Buffer) error { return WriteJSON(b, tr) },
		"gzip":   func(b *bytes.Buffer) error { return WriteCompressed(b, tr) },
	}
	for name, enc := range encoders {
		var buf bytes.Buffer
		if err := enc(&buf); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := ReadAuto(&buf)
		if err != nil {
			t.Fatalf("ReadAuto(%s): %v", name, err)
		}
		if !tracesEqual(tr, got) {
			t.Errorf("ReadAuto(%s) mismatch", name)
		}
	}
	if _, err := ReadAuto(bytes.NewReader([]byte("?!"))); !errors.Is(err, ErrBadFormat) {
		t.Errorf("want ErrBadFormat for garbage, got %v", err)
	}
	if _, err := ReadCompressed(bytes.NewReader([]byte("nope"))); !errors.Is(err, ErrBadFormat) {
		t.Errorf("want ErrBadFormat for non-gzip, got %v", err)
	}
}
