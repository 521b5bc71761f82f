package main

import (
	"bytes"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"phasebeat/internal/fleet"
)

// syncBuffer lets the daemon goroutine write stdout while the test polls.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func TestSelftestSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("load harness")
	}
	var out syncBuffer
	err := run([]string{
		"-selftest",
		"-sessions", "8", "-shards", "2", "-feeders", "2",
		"-rate", "30", "-seconds", "12", "-window", "4", "-stride", "1",
		"-churn", "0.25",
	}, &out, nil)
	if err != nil {
		t.Fatalf("selftest: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "sessions/core") {
		t.Fatalf("selftest printed no density report:\n%s", out.String())
	}
}

func TestServeOpenCloseShutdown(t *testing.T) {
	var out syncBuffer
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-listen", "127.0.0.1:0"}, &out, stop)
	}()

	addrRe := regexp.MustCompile(`serving tcp on (\S+)`)
	var addr string
	deadline := time.Now().Add(10 * time.Second)
	for addr == "" {
		if m := addrRe.FindStringSubmatch(out.String()); m != nil {
			addr = m[1]
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never reported its address:\n%s", out.String())
		}
		time.Sleep(5 * time.Millisecond)
	}

	c, err := fleet.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Open("smoke", fleet.SessionConfig{
		SampleRate: 30, NumAntennas: 3, NumSubcarriers: 16,
		WindowSeconds: 4, UpdateEverySeconds: 1, Persons: 1,
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.CloseSession("smoke"); err != nil {
		t.Fatal(err)
	}

	close(stop)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("daemon exit: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not shut down")
	}
}

func TestRunRejectsBadInvocations(t *testing.T) {
	var out syncBuffer
	if err := run(nil, &out, nil); err == nil {
		t.Fatal("no -listen/-unix/-selftest accepted")
	}
	if err := run([]string{"-log", "loud"}, &out, nil); err == nil {
		t.Fatal("unknown log level accepted")
	}
	// Tracing flags are ignored without an SLO target: refuse them,
	// naming the missing flag.
	for _, args := range [][]string{
		{"-selftest", "-flight-dir", "x"},
		{"-selftest", "-span-sample", "4"},
		{"-selftest", "-span-slow-ms", "100"},
		{"-selftest", "-spans", "64"},
		{"-selftest", "-slo-objective", "0.99"},
		{"-selftest", "-slo-fast-window", "1m"},
		{"-selftest", "-slo-slow-window", "2h"},
		{"-selftest", "-slo-target-ms", "0", "-flight-dir", "x"},
	} {
		err := run(args, &out, nil)
		if err == nil || !strings.Contains(err.Error(), "-slo-target-ms") {
			t.Errorf("run %v: error %v, want one naming -slo-target-ms", args, err)
		}
	}
}
