package core

import (
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"phasebeat/internal/metrics"
	"phasebeat/internal/otrace"
)

// The tests in this file pin the Monitor's shutdown and backpressure
// contracts: Close is a hard emission barrier with exact observer
// accounting, post-Close Ingest deterministically refuses, and the
// drop-on-backlog deliver path stays off the CPU when a consumer races
// its eviction.

// strideObserver is a live StageObserver grouping the stage stats it
// receives into strides (each Monitor stride starts with smooth).
type strideObserver struct {
	mu      sync.Mutex
	strides [][]StageStats
}

func (o *strideObserver) OnStageStart(string) {}

func (o *strideObserver) OnStageEnd(s StageStats) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if s.Stage == StageSmooth || len(o.strides) == 0 {
		o.strides = append(o.strides, nil)
	}
	last := len(o.strides) - 1
	o.strides[last] = append(o.strides[last], s)
}

// durations lists stage durations in run order.
func durations(stages []StageStats) []time.Duration {
	out := make([]time.Duration, len(stages))
	for i, s := range stages {
		out[i] = s.Duration
	}
	return out
}

// TestCloseDeliverExactObserverAccounting races Close against the stride
// cadence at shifting points, with every observation consumer wired —
// metrics, latency spans, a sink and a live observer — and requires, every
// time, that the sink saw exactly the updates the consumer received, as
// did the updates counter: delivery is the commit point, so a final stride
// racing Close is either fully emitted or fully suppressed — never
// observed without being delivered. Every delivered stride's record must
// agree with its span child stages and with what the live observer got.
func TestCloseDeliverExactObserverAccounting(t *testing.T) {
	cfg := allocTestConfig()
	cfg.NumSubcarriers = 16
	pkts := syntheticPackets(1300, cfg.NumAntennas, cfg.NumSubcarriers, cfg.SampleRate)
	tracer, err := otrace.New(otrace.Config{SampleEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Tracer = tracer

	iters := 25
	if testing.Short() {
		iters = 5
	}
	for iter := 0; iter < iters; iter++ {
		reg := metrics.NewRegistry()
		sink := &recordSink{}
		obs := &strideObserver{}
		cfg.Metrics = reg
		cfg.Pipeline.Sink = sink
		cfg.Pipeline.Observer = obs
		m, err := NewMonitor(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var delivered []Update
		drained := make(chan struct{})
		go func() {
			defer close(drained)
			for u := range m.Updates() {
				delivered = append(delivered, u)
			}
		}()
		fed := make(chan struct{})
		go func() {
			defer close(fed)
			for _, p := range pkts {
				if !m.IngestCtx(p, tracer.Start(0)) {
					return
				}
			}
		}()
		// Close at a shifting accepted-count target so different
		// iterations land at different phases of the stride cycle —
		// including right on top of a deliver.
		target := uint64(400 + (iter*37)%800)
	wait:
		for m.Health().Accepted < target {
			select {
			case <-fed:
				break wait
			default:
				runtime.Gosched()
			}
		}
		m.Close()
		<-fed
		<-drained
		recs := sink.records()
		if len(recs) != len(delivered) {
			t.Fatalf("iter %d: sink saw %d strides, consumer received %d — Close split an emission",
				iter, len(recs), len(delivered))
		}
		if got := reg.Counter(metricUpdatesEmitted).Value(); got != uint64(len(delivered)) {
			t.Fatalf("iter %d: %s = %d, consumer received %d", iter, metricUpdatesEmitted, got, len(delivered))
		}
		// The live observer also saw the stride Close may have refused.
		obs.mu.Lock()
		strides := obs.strides
		obs.mu.Unlock()
		if len(strides) < len(recs) {
			t.Fatalf("iter %d: observer saw %d strides, sink %d", iter, len(strides), len(recs))
		}
		for i, rec := range recs {
			u := delivered[i]
			if rec.Time != u.Time || rec.Health != u.Health {
				t.Fatalf("iter %d stride %d: record is not the delivered update", iter, i)
			}
			want := durations(rec.Stages)
			if len(want) == 0 {
				t.Fatalf("iter %d stride %d: record has no stages", iter, i)
			}
			span := make([]time.Duration, len(u.Trace.Stages))
			for j, s := range u.Trace.Stages {
				if s.Name != rec.Stages[j].Stage {
					t.Fatalf("iter %d stride %d: span stage %d is %s, record %s", iter, i, j, s.Name, rec.Stages[j].Stage)
				}
				span[j] = time.Duration(s.Nanos)
			}
			if !reflect.DeepEqual(span, want) {
				t.Fatalf("iter %d stride %d: span stages %v, record %v", iter, i, span, want)
			}
			if got := durations(strides[i]); !reflect.DeepEqual(got, want) {
				t.Fatalf("iter %d stride %d: observer durations %v, record %v", iter, i, got, want)
			}
		}
	}
}

// TestIngestAfterCloseReturnsFalse pins the deterministic post-Close
// contract in both ingest modes: every Ingest that starts after Close has
// returned reports false, even from many goroutines hammering a queue
// that still has free capacity.
func TestIngestAfterCloseReturnsFalse(t *testing.T) {
	for _, drop := range []bool{false, true} {
		cfg := allocTestConfig()
		cfg.NumSubcarriers = 16
		cfg.DropOnBacklog = drop
		cfg.IngestBuffer = 8
		m, err := NewMonitor(cfg)
		if err != nil {
			t.Fatal(err)
		}
		p := syntheticPackets(1, cfg.NumAntennas, cfg.NumSubcarriers, cfg.SampleRate)[0]
		if !m.Ingest(p) {
			t.Fatalf("drop=%v: pre-Close Ingest refused", drop)
		}
		m.Close()
		var wg sync.WaitGroup
		var trues atomic.Uint64
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 500; i++ {
					if m.Ingest(p) {
						trues.Add(1)
					}
				}
			}()
		}
		wg.Wait()
		if n := trues.Load(); n != 0 {
			t.Fatalf("drop=%v: %d Ingest calls returned true after Close", drop, n)
		}
	}
}

// TestIngestCommitRecheckRefusesAfterStop pins the guard that closes the
// strand-with-true window: an Ingest whose queue send wins a race with
// Close must still report false once stop is observed closed, because the
// worker may already have exited without draining the queue. The
// interleaving (send committed, then stop closes before the verdict) is
// reconstructed directly since it cannot be scheduled reliably from the
// outside.
func TestIngestCommitRecheckRefusesAfterStop(t *testing.T) {
	cfg := allocTestConfig()
	cfg.NumSubcarriers = 16
	cfg.IngestBuffer = 4
	m, err := NewMonitor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !m.ingestCommitted() {
		t.Fatal("ingestCommitted refused while the monitor is live")
	}
	m.Close()
	if m.ingestCommitted() {
		t.Fatal("ingestCommitted returned true after Close: a racing Ingest would strand its packet while claiming acceptance")
	}
}

// TestDeliverSlowConsumerBoundedCPU is the busy-spin regression test for
// the drop-on-backlog deliver path: a consumer that sleeps between reads
// forces the replace path on (nearly) every emission while racing the
// worker's eviction, and the worker must get through the whole run on a
// bounded CPU budget — the old send-fails/evict-fails/retry-immediately
// loop had no yield between attempts. Liveness and the replacement
// accounting are asserted everywhere; the CPU ceiling needs rusage and an
// uninstrumented build.
func TestDeliverSlowConsumerBoundedCPU(t *testing.T) {
	cfg := allocTestConfig()
	cfg.NumSubcarriers = 16
	cfg.DropOnBacklog = true
	cfg.IngestBuffer = 64
	cfg.UpdateEverySeconds = 0.5
	m, err := NewMonitor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pkts := syntheticPackets(3000, cfg.NumAntennas, cfg.NumSubcarriers, cfg.SampleRate)

	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for range m.Updates() {
			// A deliberately slow consumer: almost every new update finds
			// the buffer full and must evict, with this goroutine's reads
			// racing the evictions.
			time.Sleep(5 * time.Millisecond)
		}
	}()

	cpu0, haveCPU := processCPUSeconds()
	start := time.Now()
	deadline := start.Add(30 * time.Second)
	for i, p := range pkts {
		m.Ingest(p) // never blocks in drop mode
		// Pace the feeder to the worker so every packet is accepted and
		// the engine keeps striding: the contention under test is on the
		// updates channel, not the ingest queue.
		for m.Health().Accepted < uint64(i) {
			if time.Now().After(deadline) {
				t.Fatalf("worker stalled at packet %d: %+v", i, m.Health())
			}
			runtime.Gosched()
		}
	}
	for m.Health().Accepted < uint64(len(pkts)) {
		if time.Now().After(deadline) {
			t.Fatalf("worker stalled: %+v", m.Health())
		}
		time.Sleep(time.Millisecond)
	}
	wall := time.Since(start).Seconds()
	cpu1, _ := processCPUSeconds()
	m.Close()
	<-drained

	if raceEnabled {
		// Race instrumentation slows the worker below the consumer's
		// pace, so contention never materialises; the run above still
		// checks shutdown liveness under the detector.
		t.Skip("contention assertions need an uninstrumented build")
	}
	if m.Health().UpdatesReplaced == 0 {
		t.Fatal("slow consumer produced no replacements — the contended deliver path was not exercised")
	}
	if !haveCPU {
		t.Skip("CPU ceiling needs rusage")
	}
	// Worker + feeder legitimately occupy up to ~two cores; a deliver
	// busy-spin burns a further full core for most of the run, which this
	// generous ceiling still catches.
	budget := 2*wall + 0.5
	if used := cpu1 - cpu0; used > budget {
		t.Fatalf("process burned %.2fs CPU over %.2fs wall (budget %.2fs): deliver is spinning under contention",
			used, wall, budget)
	}
}

// TestDrainProcessesBacklog pins the Drain contract: every packet queued
// before Drain is processed and every resulting stride update is
// delivered, where Close would have abandoned the backlog. The buffer is
// sized above the feed so the whole stream is still queued when Drain
// starts — the worst case for Close, the defining case for Drain.
func TestDrainProcessesBacklog(t *testing.T) {
	cfg := allocTestConfig()
	cfg.NumSubcarriers = 16
	cfg.IngestBuffer = 1024
	const n = 700 // 400-packet window + 6 full 50-packet strides
	pkts := syntheticPackets(n, cfg.NumAntennas, cfg.NumSubcarriers, cfg.SampleRate)
	m, err := NewMonitor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var updates []Update
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for u := range m.Updates() {
			updates = append(updates, u)
		}
	}()
	for _, p := range pkts {
		if !m.Ingest(p) {
			t.Fatal("Ingest refused before Drain")
		}
	}
	m.Drain()
	<-drained
	if got := m.Health().Accepted; got != n {
		t.Fatalf("Drain left packets unprocessed: accepted %d of %d", got, n)
	}
	if len(updates) != 7 {
		t.Fatalf("got %d updates, want 7 (strides at packets 400, 450, ..., 700)", len(updates))
	}
	wantLast := pkts[n-1].Time
	if got := updates[len(updates)-1].Time; got != wantLast {
		t.Fatalf("final update at t=%v, want t=%v (the last queued packet)", got, wantLast)
	}
	if m.Ingest(pkts[0]) {
		t.Fatal("Ingest accepted a packet after Drain")
	}
	m.Drain() // idempotent
	m.Close() // no-op after Drain
}
