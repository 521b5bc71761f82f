package fleet

import (
	"bufio"
	"encoding/binary"
	"io"
	"net"
	"strings"
	"testing"
	"time"
)

// startServer runs a Server on a loopback listener and returns its
// address plus a cleanup-registered shutdown.
func startServer(t *testing.T, mgr *Manager) string {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(mgr, nil)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(lis) }()
	t.Cleanup(func() {
		srv.Shutdown()
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})
	return lis.Addr().String()
}

// TestServerEndToEnd drives the whole daemon path over TCP: open a
// session, stream simulated CSI frames, long-poll an update carrying a
// plausible breathing estimate, and close — the reference client against
// the reference server.
func TestServerEndToEnd(t *testing.T) {
	hc := testHarnessConfig()
	pkts, err := templatePackets(hc)
	if err != nil {
		t.Fatal(err)
	}
	mgr := testManager(t, 2, nil)
	defer mgr.Close()
	addr := startServer(t, mgr)

	c, err := Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.Open("e2e", SessionConfig{}); err != nil {
		t.Fatal(err)
	}
	if err := c.Open("e2e", SessionConfig{}); err == nil {
		t.Fatal("duplicate open over the wire succeeded")
	}
	for _, p := range pkts {
		if err := c.Ingest("e2e", p); err != nil {
			t.Fatal(err)
		}
	}

	// Long-poll until the session has chewed through the stream. The
	// server caps each wait; the loop is our retry with the same cursor.
	var got UpdateFrame
	deadline := time.Now().Add(30 * time.Second)
	for {
		uf, ok, err := c.Subscribe("e2e", 0, 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			got = uf
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no update over the wire in 30s")
		}
	}
	if got.Key != "e2e" || got.Seq == 0 {
		t.Fatalf("bad update frame: %+v", got)
	}
	if got.Health.Accepted == 0 {
		t.Fatalf("update carries empty health: %+v", got.Health)
	}
	if got.HasBreathing && (got.BreathingBPM < 4 || got.BreathingBPM > 60) {
		t.Fatalf("implausible breathing estimate over the wire: %v", got.BreathingBPM)
	}

	// Cursor semantics over the wire: no newer update → empty OK (ok
	// false), not a stale repeat.
	if _, ok, err := c.Subscribe("e2e", got.Seq+1000, 50*time.Millisecond); err != nil || ok {
		t.Fatalf("future cursor returned ok=%v err=%v", ok, err)
	}

	if err := c.CloseSession("e2e"); err != nil {
		t.Fatal(err)
	}
	if err := c.CloseSession("e2e"); err == nil {
		t.Fatal("double close over the wire succeeded")
	}
	if _, _, err := c.Subscribe("e2e", 0, 10*time.Millisecond); err == nil {
		t.Fatal("subscribe to a closed session succeeded")
	}
}

// TestServerRejectsOversizedWindow opens sessions whose window would
// overflow the ring allocation over TCP: each open must come back as an
// error frame on a still-usable connection, and the Manager must go on
// serving a well-formed session afterwards instead of crashing on the
// worker goroutine.
func TestServerRejectsOversizedWindow(t *testing.T) {
	hc := testHarnessConfig()
	pkts, err := templatePackets(hc)
	if err != nil {
		t.Fatal(err)
	}
	mgr := testManager(t, 1, nil)
	defer mgr.Close()
	addr := startServer(t, mgr)
	c, err := Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	for _, window := range []float64{1e6, 1e12, 1e300} {
		err := c.Open("bomb", SessionConfig{SampleRate: 400, WindowSeconds: window})
		if err == nil || !strings.Contains(err.Error(), "exceeds") {
			t.Fatalf("window %g s: open err %v, want an exceeds error", window, err)
		}
	}
	if _, ok := mgr.Get("bomb"); ok {
		t.Fatal("rejected session is registered")
	}

	if err := c.Open("ok", SessionConfig{}); err != nil {
		t.Fatal(err)
	}
	for _, p := range pkts {
		if err := c.Ingest("ok", p); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		uf, ok, err := c.Subscribe("ok", 0, 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			if uf.Health.Accepted == 0 {
				t.Fatalf("update carries empty health: %+v", uf.Health)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no update from the well-formed session in 30s")
		}
	}
}

// TestServerDropsHostilePeers sends protocol garbage and expects the
// connection to be refused cleanly: an error frame where the stream is
// still well-formed, then EOF — and, critically, no large allocation or
// hang serverside.
func TestServerDropsHostilePeers(t *testing.T) {
	mgr := testManager(t, 1, nil)
	defer mgr.Close()
	addr := startServer(t, mgr)

	send := func(t *testing.T, raw []byte) (byte, []byte, error) {
		t.Helper()
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if _, err := conn.Write(raw); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		return readFrame(bufio.NewReader(conn), nil)
	}

	t.Run("hostile length", func(t *testing.T) {
		typ, payload, err := send(t, []byte{frameIngest, 0xff, 0xff, 0xff, 0xff})
		if err != nil {
			t.Fatalf("expected an error frame, got %v", err)
		}
		if typ != frameError || !strings.Contains(string(payload), "exceeds") {
			t.Fatalf("reply 0x%02x %q", typ, payload)
		}
	})

	t.Run("unknown frame type", func(t *testing.T) {
		typ, payload, err := send(t, []byte{0x7f, 0, 0, 0, 0})
		if err != nil {
			t.Fatalf("expected an error frame, got %v", err)
		}
		if typ != frameError || !strings.Contains(string(payload), "unknown frame type") {
			t.Fatalf("reply 0x%02x %q", typ, payload)
		}
	})

	t.Run("shape bomb", func(t *testing.T) {
		// A syntactically valid ingest frame declaring an illegal CSI
		// shape: key "k", then 255 antennas × 65535 subcarriers with no
		// cells. Must be rejected by validation, not by a failed
		// gigabyte allocation.
		payload := appendKey(nil, "k")
		payload = appendF64(payload, 0)
		payload = append(payload, 0xff)
		payload = binary.LittleEndian.AppendUint16(payload, 0xffff)
		frame := []byte{frameIngest, 0, 0, 0, 0}
		binary.LittleEndian.PutUint32(frame[1:], uint32(len(payload)))
		frame = append(frame, payload...)
		typ, msg, err := send(t, frame)
		if err != nil {
			t.Fatalf("expected an error frame, got %v", err)
		}
		if typ != frameError || !strings.Contains(string(msg), "shape") {
			t.Fatalf("reply 0x%02x %q", typ, msg)
		}
	})

	t.Run("connection closes after error", func(t *testing.T) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if _, err := conn.Write([]byte{0x7f, 0, 0, 0, 0}); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		r := bufio.NewReader(conn)
		if _, _, err := readFrame(r, nil); err != nil {
			t.Fatalf("missing error frame: %v", err)
		}
		if _, err := r.ReadByte(); err != io.EOF {
			t.Fatalf("connection survived a protocol error: %v", err)
		}
	})
}
