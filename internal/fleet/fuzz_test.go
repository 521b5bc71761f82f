package fleet

import (
	"bytes"
	"io"
	"testing"

	"phasebeat/internal/core"
	"phasebeat/internal/trace"
)

// FuzzFrameDecode drives every wire-frame decoder with hostile payloads.
// The first seed byte routes to a decoder; the rest is its payload. Two
// invariants hold for every accepted payload:
//
//   - decode → encode → decode is a fixed point (byte-identical on the
//     second encode, so NaN floats need no special-casing), and
//   - decoded values respect the documented hardening bounds, so no
//     accepted frame can smuggle an oversized shape or key past them.
//
// The raw input is also replayed through readFrame to exercise the
// header/length bound path.
func FuzzFrameDecode(f *testing.F) {
	pkt := trace.NewPacket(1.5, 2, 4)
	for a := range pkt.CSI {
		for s := range pkt.CSI[a] {
			pkt.CSI[a][s] = complex(float64(a), float64(s))
		}
	}
	ingest, err := encodeIngest("sess", pkt, 987654321)
	if err != nil {
		f.Fatal(err)
	}
	uf := UpdateFrame{
		Key: "sess", Seq: 9, Time: 12.5,
		HasBreathing: true, BreathingBPM: 15.6,
		Err:    "stage segment: no stationary segment",
		Health: core.Health{Accepted: 100, GapResets: 1},
	}
	f.Add(append([]byte{frameOpen}, encodeOpen("sess", SessionConfig{
		SampleRate: 30, NumAntennas: 3, NumSubcarriers: 16,
		WindowSeconds: 8, UpdateEverySeconds: 2, Persons: 1,
	})...))
	f.Add(append([]byte{frameIngest}, ingest...))
	f.Add(append([]byte{frameClose}, encodeClose("sess")...))
	f.Add(append([]byte{frameSubscribe}, encodeSubscribe("sess", 4, 250)...))
	f.Add(append([]byte{frameUpdate}, encodeUpdate(uf)...))
	f.Add([]byte{frameIngest, 0xff, 0xff})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		typ, payload := data[0], data[1:]
		switch typ {
		case frameOpen:
			req, err := decodeOpen(payload)
			if err != nil {
				break
			}
			if len(req.Key) == 0 || len(req.Key) > MaxKeyLen {
				t.Fatalf("accepted key length %d", len(req.Key))
			}
			enc := encodeOpen(req.Key, req.Session)
			req2, err := decodeOpen(enc)
			if err != nil {
				t.Fatalf("re-decode of accepted open failed: %v", err)
			}
			if !bytes.Equal(enc, encodeOpen(req2.Key, req2.Session)) {
				t.Fatal("open encode is not a fixed point")
			}
		case frameIngest:
			key, p, send, err := decodeIngest(payload)
			if err != nil {
				break
			}
			if len(p.CSI) == 0 || len(p.CSI) > trace.MaxAntennas || len(p.CSI[0]) > trace.MaxSubcarriers {
				t.Fatalf("accepted packet shape %d×%d", len(p.CSI), len(p.CSI[0]))
			}
			enc, err := encodeIngest(key, p, send)
			if err != nil {
				t.Fatalf("re-encode of accepted ingest failed: %v", err)
			}
			key2, p2, send2, err := decodeIngest(enc)
			if err != nil {
				t.Fatalf("re-decode of accepted ingest failed: %v", err)
			}
			if send2 != send {
				t.Fatalf("send timestamp changed across roundtrip: %d != %d", send2, send)
			}
			enc2, err := encodeIngest(key2, p2, send2)
			if err != nil || !bytes.Equal(enc, enc2) {
				t.Fatal("ingest encode is not a fixed point")
			}
		case frameClose:
			key, err := decodeClose(payload)
			if err != nil {
				break
			}
			if !bytes.Equal(encodeClose(key), payload) {
				t.Fatal("close encode is not a fixed point")
			}
		case frameSubscribe:
			req, err := decodeSubscribe(payload)
			if err != nil {
				break
			}
			if !bytes.Equal(encodeSubscribe(req.Key, req.Since, req.WaitMillis), payload) {
				t.Fatal("subscribe encode is not a fixed point")
			}
		case frameUpdate:
			u, err := decodeUpdate(payload)
			if err != nil {
				break
			}
			enc := encodeUpdate(u)
			u2, err := decodeUpdate(enc)
			if err != nil {
				t.Fatalf("re-decode of accepted update failed: %v", err)
			}
			if !bytes.Equal(enc, encodeUpdate(u2)) {
				t.Fatal("update encode is not a fixed point")
			}
		}
		// The stream reader must reject or consume hostile bytes without
		// allocating past the payload bound; errors are the expected
		// outcome, panics and runaway allocation are the bug.
		r := bytes.NewReader(data)
		var buf []byte
		for {
			_, payload, err := readFrame(r, buf)
			if err != nil {
				break
			}
			if len(payload) > MaxFramePayload {
				t.Fatalf("readFrame returned %d-byte payload past the bound", len(payload))
			}
			buf = payload[:0]
		}
		_, _ = io.Copy(io.Discard, r)
	})
}
