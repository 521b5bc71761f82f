package arena

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

func TestRingGeometryPanics(t *testing.T) {
	for _, f := range []func(){
		func() { newRing(0, 4, make([]float64, 0)) },
		func() { newRing(1, 0, make([]float64, 0)) },
		func() { NewFloatRing(nil, 3, 0) },
		func() { NewFloatRing(nil, 3, -4) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("bad geometry did not panic")
				}
			}()
			f()
		}()
	}
}

// value is the deterministic test signal: what sample index i of channel
// c must hold, forever, regardless of wraparound.
func value(c int, i int64) float64 {
	return float64(c)*1e6 + float64(i)
}

// linear returns a view's samples in admission order.
func linear(v View) []float64 {
	dst := make([]float64, len(v.a)+len(v.b))
	v.CopyTo(dst)
	return dst
}

// TestRingAbsoluteIndexingAcrossWraparound is the core alias-safety
// property test: push far more samples than capacity and verify that
// every in-retention view reads exactly the value function — i.e. a view
// can never observe a newer sample aliased into an older index, or vice
// versa.
func TestRingAbsoluteIndexingAcrossWraparound(t *testing.T) {
	const (
		channels = 5
		capReq   = 33 // not a power of two: the slot wraps by modulus
		total    = capReq*7 + 13
	)
	a := New()
	r := NewFloatRing(a, channels, capReq)
	if r.capacity != capReq {
		t.Fatalf("capacity = %d, want %d", r.capacity, capReq)
	}
	if got, want := a.Stats().Bytes, int64(8*channels*capReq); got != want {
		t.Fatalf("ring slab holds %d bytes, want exactly %d", got, want)
	}
	rng := rand.New(rand.NewSource(7))
	for i := int64(0); i < total; i++ {
		slot := r.Slot()
		for c := 0; c < channels; c++ {
			r.Columns()[c][slot] = value(c, i)
		}
		r.Advance()
		if r.Head() != i+1 {
			t.Fatalf("head = %d after %d advances", r.Head(), i+1)
		}
		if want := int((i + 1) % capReq); r.Slot() != want {
			t.Fatalf("slot = %d at head %d, want %d", r.Slot(), r.Head(), want)
		}
		// Probe random in-retention windows after every push.
		for probe := 0; probe < 4; probe++ {
			lowest := r.Head() - int64(r.capacity)
			if lowest < 0 {
				lowest = 0
			}
			avail := r.Head() - lowest
			n := rng.Int63n(avail + 1)
			start := lowest + rng.Int63n(avail-n+1)
			c := rng.Intn(channels)
			v, err := r.View(c, start, int(n))
			if err != nil {
				t.Fatalf("view [%d,%d) at head %d: %v", start, start+n, r.Head(), err)
			}
			// The two backing segments must cover the window exactly.
			if int64(len(v.a)+len(v.b)) != n || v.start != start {
				t.Fatalf("view shape: len=%d start=%d want %d/%d", len(v.a)+len(v.b), v.start, n, start)
			}
			dst := make([]float64, n)
			if m := v.CopyTo(dst); int64(m) != n {
				t.Fatalf("CopyTo copied %d of %d", m, n)
			}
			for j, got := range dst {
				if want := value(c, start+int64(j)); got != want {
					t.Fatalf("view(%d)[%d] (abs %d) = %v, want %v (head %d)",
						c, j, start+int64(j), got, want, r.Head())
				}
			}
		}
	}
}

// TestRingViewRejectsOutOfRetention verifies the wraparound guard: a
// window reaching past either end of retention is an error, never stale
// or future data.
func TestRingViewRejectsOutOfRetention(t *testing.T) {
	r := NewFloatRing(nil, 1, 8)
	for i := 0; i < 20; i++ {
		r.Columns()[0][r.Slot()] = float64(i)
		r.Advance()
	}
	// head = 20, capacity = 8, retention = [12, 20)
	if _, err := r.View(0, 12, 8); err != nil {
		t.Fatalf("full-retention view rejected: %v", err)
	}
	for _, bad := range []struct {
		start int64
		n     int
	}{
		{11, 8},  // one sample too old
		{13, 8},  // one sample into the future
		{20, 1},  // entirely future
		{-1, 1},  // negative
		{12, 9},  // longer than capacity
		{12, -1}, // negative length
	} {
		if _, err := r.View(0, bad.start, bad.n); err == nil {
			t.Errorf("view [%d,%d) accepted, want out-of-retention error", bad.start, bad.start+int64(bad.n))
		}
	}
	// Zero-length views at any in-retention anchor are fine.
	if v, err := r.View(0, 20, 0); err != nil || len(linear(v)) != 0 {
		t.Fatalf("empty view at head: %v", err)
	}
}

func TestRingResetRestartsIndexing(t *testing.T) {
	r := NewFloatRing(nil, 2, 4)
	for i := 0; i < 6; i++ {
		for c := 0; c < 2; c++ {
			r.Columns()[c][r.Slot()] = float64(100 + i)
		}
		r.Advance()
	}
	r.Reset()
	if r.Head() != 0 || r.Slot() != 0 {
		t.Fatalf("after reset: head=%d slot=%d", r.Head(), r.Slot())
	}
	r.Columns()[1][r.Slot()] = 7
	r.Advance()
	v, err := r.View(1, 0, 1)
	if err != nil || linear(v)[0] != 7 {
		t.Fatalf("post-reset view: %v (err %v)", v, err)
	}
}

func TestRingRelease(t *testing.T) {
	a := New()
	r := NewFloatRing(a, 6, 16)
	r.Columns()[5][0] = 1.5
	r.Advance()
	r.Release(a)
	if st := a.Stats(); st.Allocs != 1 {
		t.Fatalf("stats = %+v", st)
	}
	// Released slab must be reusable.
	s := a.Floats(6 * 16)
	if s[0] != 0 {
		t.Fatalf("reused ring slab not zeroed")
	}
	if st := a.Stats(); st.Reuses != 1 {
		t.Fatalf("ring slab not reused: stats = %+v", st)
	}
	r.Release(a) // double release is a no-op
	var nilR *Ring
	nilR.Release(a)
}

// TestRingConcurrentIngestAndReads is the -race stress test from the
// issue: a writer goroutine ingests in stride-sized bursts while a pool
// of reader goroutines concurrently takes views over the settled window
// — the exact shape of the Monitor's ingest → parallel per-subcarrier
// stride fan-out. The writer only proceeds once the burst's readers ack,
// matching the engine's guarantee that stage reads always trail ingest
// (settled samples are never rewritten while a view is live).
func TestRingConcurrentIngestAndReads(t *testing.T) {
	const (
		channels = 8
		capacity = 64
		window   = capacity / 2
		stride   = 8
		bursts   = 300
		readers  = 4
	)
	r := NewFloatRing(nil, channels, capacity)
	work := make(chan int64) // head after each burst
	acks := make(chan error, readers)
	var wg sync.WaitGroup

	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for head := range work {
				var err error
				// Each reader scans a random spread of channels in the
				// settled window, concurrently with the other readers.
				for probe := 0; probe < 8 && err == nil; probe++ {
					n := window
					if head < int64(n) {
						n = int(head)
					}
					start := head - int64(n)
					c := rng.Intn(channels)
					v, verr := r.View(c, start, n)
					if verr != nil {
						err = fmt.Errorf("reader %d: %v", g, verr)
						break
					}
					for j, got := range linear(v) {
						abs := start + int64(j)
						if want := value(c, abs); got != want {
							err = fmt.Errorf("reader %d: channel %d abs %d = %v, want %v", g, c, abs, got, want)
							break
						}
					}
				}
				acks <- err
			}
		}(g)
	}

	var failure error
	for b := int64(0); b < bursts; b++ {
		for k := 0; k < stride; k++ {
			i := r.Head()
			slot := r.Slot()
			for c := 0; c < channels; c++ {
				r.Columns()[c][slot] = value(c, i)
			}
			r.Advance()
		}
		head := r.Head()
		for g := 0; g < readers; g++ {
			work <- head
		}
		for g := 0; g < readers; g++ {
			if err := <-acks; err != nil && failure == nil {
				failure = err
			}
		}
		if failure != nil {
			break
		}
	}
	close(work)
	wg.Wait()
	if failure != nil {
		t.Fatal(failure)
	}
}
