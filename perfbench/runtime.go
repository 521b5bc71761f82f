package main

import (
	"runtime"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"
)

// cpuSeconds returns the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// liveHeapBytes forces a collection and returns the heap still reachable.
func liveHeapBytes() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

// runtimeSampler watches the Go runtime over a measured interval: GC CPU
// share from runtime/metrics deltas, and the peak heap and goroutine
// counts from periodic samples.
type runtimeSampler struct {
	stop chan struct{}
	wg   sync.WaitGroup

	gc0, total0 float64
	// Written by the sampling goroutine; read after end() joins it.
	heapPeak, goroutinesPeak float64
	gcFrac                   float64
}

var samplerNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/memory/classes/heap/objects:bytes",
	"/sched/goroutines:goroutines",
}

func readRuntime() (gc, total, heap, goroutines float64) {
	s := make([]metrics.Sample, len(samplerNames))
	for i, n := range samplerNames {
		s[i].Name = n
	}
	metrics.Read(s)
	get := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		}
		return 0
	}
	return get(0), get(1), get(2), get(3)
}

func startSampler() *runtimeSampler {
	rs := &runtimeSampler{stop: make(chan struct{})}
	rs.gc0, rs.total0, _, _ = readRuntime()
	rs.wg.Add(1)
	go func() {
		defer rs.wg.Done()
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			_, _, heap, g := readRuntime()
			if heap > rs.heapPeak {
				rs.heapPeak = heap
			}
			if g > rs.goroutinesPeak {
				rs.goroutinesPeak = g
			}
			select {
			case <-rs.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return rs
}

// end stops the sampler and fixes the GC CPU share of the interval.
// The runtime's CPU accounting is refreshed at each GC, so the shares are
// read after one.
func (rs *runtimeSampler) end() {
	close(rs.stop)
	rs.wg.Wait()
	runtime.GC()
	gc, total, _, _ := readRuntime()
	if d := total - rs.total0; d > 0 {
		rs.gcFrac = (gc - rs.gc0) / d
	}
}

func (rs *runtimeSampler) report(r *result) {
	r.set("go.gc_cpu_frac", rs.gcFrac, "frac", 0)
	r.set("go.heap_peak_mb", rs.heapPeak/(1<<20), "MB", 0)
	r.set("go.goroutines_peak", rs.goroutinesPeak, "count", 0)
}
