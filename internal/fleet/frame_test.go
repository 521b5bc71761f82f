package fleet

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"math"
	"strings"
	"testing"

	"phasebeat/internal/core"
	"phasebeat/internal/trace"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte("hello frames")
	if err := writeFrame(&buf, frameOpen, payload); err != nil {
		t.Fatal(err)
	}
	typ, got, err := readFrame(&buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	if typ != frameOpen || !bytes.Equal(got, payload) {
		t.Fatalf("roundtrip: type 0x%02x payload %q", typ, got)
	}
}

func TestReadFrameRejectsHostileLength(t *testing.T) {
	// A five-byte header declaring a 4 GiB payload must be refused before
	// any allocation is attempted.
	hdr := []byte{frameIngest, 0xff, 0xff, 0xff, 0xff}
	_, _, err := readFrame(bytes.NewReader(hdr), nil)
	if !errors.Is(err, ErrBadFrame) {
		t.Fatalf("declared 4 GiB payload: err = %v, want ErrBadFrame", err)
	}
	// Exactly at the bound is allowed; one past it is not.
	over := make([]byte, 5)
	over[0] = frameIngest
	binary.LittleEndian.PutUint32(over[1:], MaxFramePayload+1)
	if _, _, err := readFrame(bytes.NewReader(over), nil); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("payload one past bound: err = %v, want ErrBadFrame", err)
	}
}

func TestWriteFrameRejectsOversizePayload(t *testing.T) {
	err := writeFrame(&bytes.Buffer{}, frameUpdate, make([]byte, MaxFramePayload+1))
	if !errors.Is(err, ErrBadFrame) {
		t.Fatalf("oversize write: err = %v, want ErrBadFrame", err)
	}
}

func TestOpenRoundTripAndValidation(t *testing.T) {
	want := openRequest{
		Key: "tenant-7/device-12",
		Session: SessionConfig{
			SampleRate:         50,
			NumAntennas:        3,
			NumSubcarriers:     30,
			WindowSeconds:      8,
			UpdateEverySeconds: 2,
			Persons:            1,
		},
	}
	got, err := decodeOpen(encodeOpen(want.Key, want.Session))
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("open roundtrip: %+v != %+v", got, want)
	}

	hostile := []struct {
		name string
		b    []byte
	}{
		{"empty", nil},
		{"oversized key", encodeOpen(strings.Repeat("k", MaxKeyLen+1), want.Session)},
		{"zero-length key", encodeOpen("", want.Session)},
		{"trailing bytes", append(encodeOpen("k", want.Session), 0xaa)},
		{"truncated", encodeOpen("k", want.Session)[:5]},
		{"nan sample rate", encodeOpen("k", SessionConfig{SampleRate: math.NaN()})},
		{"too many subcarriers", encodeOpen("k", SessionConfig{NumSubcarriers: trace.MaxSubcarriers + 1})},
	}
	for _, tc := range hostile {
		if _, err := decodeOpen(tc.b); !errors.Is(err, ErrBadFrame) {
			t.Errorf("%s: err = %v, want ErrBadFrame", tc.name, err)
		}
	}
}

func TestIngestRoundTripAndValidation(t *testing.T) {
	p := trace.NewPacket(1.25, 3, 8)
	for a := range p.CSI {
		for s := range p.CSI[a] {
			p.CSI[a][s] = complex(float64(a), float64(s))
		}
	}
	payload, err := encodeIngest("key-1", p, 0)
	if err != nil {
		t.Fatal(err)
	}
	key, got, send, err := decodeIngest(payload)
	if err != nil {
		t.Fatal(err)
	}
	if key != "key-1" || got.Time != p.Time || send != 0 {
		t.Fatalf("ingest roundtrip header: %q t=%v send=%d", key, got.Time, send)
	}
	for a := range p.CSI {
		for s := range p.CSI[a] {
			if got.CSI[a][s] != p.CSI[a][s] {
				t.Fatalf("cell (%d,%d) = %v, want %v", a, s, got.CSI[a][s], p.CSI[a][s])
			}
		}
	}

	// The latency-span protocol rev: a nonzero send timestamp rides an
	// optional trailing field, the legacy form (no field) decodes with
	// send == 0, and the stamped payload is exactly 8 bytes longer.
	stamped, err := encodeIngest("key-1", p, 123456789)
	if err != nil {
		t.Fatal(err)
	}
	if len(stamped) != len(payload)+8 {
		t.Fatalf("stamped payload %d bytes, want legacy %d + 8", len(stamped), len(payload))
	}
	_, _, send, err = decodeIngest(stamped)
	if err != nil || send != 123456789 {
		t.Fatalf("stamped roundtrip: send=%d err=%v", send, err)
	}

	// Shape bombs: the declared cell count must match the payload exactly
	// and respect the shape bounds, checked before the packet allocation.
	header := appendKey(nil, "k")
	header = appendF64(header, 0)
	bomb := append(append([]byte(nil), header...), trace.MaxAntennas+1)
	bomb = binary.LittleEndian.AppendUint16(bomb, 1)
	if _, _, _, err := decodeIngest(bomb); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("antenna bomb: err = %v, want ErrBadFrame", err)
	}
	short := append(append([]byte(nil), header...), 2)
	short = binary.LittleEndian.AppendUint16(short, 4)
	short = append(short, make([]byte, 16)...) // 1 cell of the declared 8
	if _, _, _, err := decodeIngest(short); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("short cells: err = %v, want ErrBadFrame", err)
	}
}

// TestIngestLayoutGolden pins the ingest payload layout, legacy and
// send-stamped: key, time f64, ants u8, subs u16, antenna-major (re, im)
// f64 cells, optional send nanos u64.
func TestIngestLayoutGolden(t *testing.T) {
	const (
		wantLegacy = "02006b31" + // key
			"000000000000e03f" + "020300" + // time, shape
			"000000000000f03f0000000000000080000000000000f03f000000000000d0bf000000000000f03f000000000000e0bf000000000000004000000000000000800000000000000040000000000000d0bf0000000000000040000000000000e0bf"
		wantStamped = wantLegacy + "0807060504030201"
	)
	p := trace.NewPacket(0.5, 2, 3)
	for a := range p.CSI {
		for s := range p.CSI[a] {
			p.CSI[a][s] = complex(float64(a+1), -0.25*float64(s))
		}
	}
	for _, tc := range []struct {
		send int64
		want string
	}{{0, wantLegacy}, {0x0102030405060708, wantStamped}} {
		payload, err := encodeIngest("k1", p, tc.send)
		if err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(payload); got != tc.want {
			t.Fatalf("send=%d: ingest layout changed:\n got %s\nwant %s", tc.send, got, tc.want)
		}
	}
}

func TestSubscribeAndCloseRoundTrip(t *testing.T) {
	sub, err := decodeSubscribe(encodeSubscribe("k", 42, 1500))
	if err != nil {
		t.Fatal(err)
	}
	if sub.Key != "k" || sub.Since != 42 || sub.WaitMillis != 1500 {
		t.Fatalf("subscribe roundtrip: %+v", sub)
	}
	key, err := decodeClose(encodeClose("close-me"))
	if err != nil || key != "close-me" {
		t.Fatalf("close roundtrip: %q, %v", key, err)
	}
}

func TestUpdateFrameRoundTrip(t *testing.T) {
	want := UpdateFrame{
		Key:          "sess",
		Seq:          9,
		Time:         123.5,
		BreathingBPM: 14.25,
		HeartBPM:     72.5,
		HasBreathing: true,
		HasHeart:     true,
		Err:          "segment not stationary",
		Health: core.Health{
			Accepted:                1000,
			QuarantinedMalformed:    3,
			QuarantinedNonFinite:    1,
			QuarantinedNonMonotonic: 2,
			GapResets:               1,
			PacketsDropped:          40,
			UpdatesReplaced:         7,
			ObserverPanics:          1,
		},
	}
	got, err := decodeUpdate(encodeUpdate(want))
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("update roundtrip:\n got %+v\nwant %+v", got, want)
	}

	// Absent estimates keep their flags clear regardless of field bytes.
	bare := UpdateFrame{Key: "s", Seq: 1}
	got, err = decodeUpdate(encodeUpdate(bare))
	if err != nil {
		t.Fatal(err)
	}
	if got.HasBreathing || got.HasHeart || got.Err != "" {
		t.Fatalf("bare update grew fields: %+v", got)
	}
}
