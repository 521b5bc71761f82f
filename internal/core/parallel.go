package core

import (
	"runtime"
	"sync"
)

// parallelChunks runs fn(lo, hi) over contiguous index ranges covering
// [0, n), one range per goroutine (at most workers; 0 → GOMAXPROCS). It is
// the fan-out for the columnar stages: the per-subcarrier series are
// adjacent rows of one flat slab, so a contiguous index range is a
// contiguous byte range — each worker streams through its own span of the
// slab with no false sharing on the interleaved rows an atomic-counter
// hand-out would produce.
//
// Determinism: fn must write only to state owned by its indices; under that
// contract the results are byte-identical for every worker count. A chunk
// stops at its first error and the lowest chunk's error is returned, so the
// lowest-index error wins — exactly what a serial loop reports.
func parallelChunks(n, workers int, fn func(lo, hi int) error) error {
	if n <= 0 {
		return nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		return fn(0, n)
	}
	errs := make([]error, workers)
	var wg sync.WaitGroup
	wg.Add(workers)
	base, rem := n/workers, n%workers
	lo := 0
	for w := 0; w < workers; w++ {
		hi := lo + base
		if w < rem {
			hi++
		}
		go func(w, lo, hi int) {
			defer wg.Done()
			errs[w] = fn(lo, hi)
		}(w, lo, hi)
		lo = hi
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
