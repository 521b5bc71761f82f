// Package arena provides the columnar CSI memory layout shared by the
// batch pipeline and the streaming Monitor: a size-classed float64 slab
// allocator (Arena), dense subcarrier-major matrices whose rows live in
// one flat backing slab (Matrix), and columnar ring buffers with absolute
// sample indexing and zero-copy window views (Ring, View). Every slab is
// exactly as long as its payload: the size classes only key the free
// lists, they never round an allocation up.
//
// The motivating access pattern is PhaseBeat's: packets arrive as
// row-oriented per-packet [antenna][subcarrier] matrices, but every DSP
// stage consumes one (antenna-pair, subcarrier) channel's *time series* at
// a time. Storing each channel contiguously ("subcarrier-major") turns the
// per-stage strided walks over packet rows into sequential scans, and the
// one unavoidable transpose is paid exactly once, at ingest. Nothing here
// retains raw complex CSI: the Monitor's ring holds the wrapped phase
// difference derived from it at ingest, and the batch pipeline's matrices
// hold the extracted and smoothed series.
//
// An Arena is safe for concurrent use, so one allocator can back many
// Monitor sessions (the fleet-daemon hook: pass the same *Arena to every
// MonitorConfig). Rings, matrices and views are single-writer by design —
// they are owned by one pipeline or one Monitor worker goroutine.
package arena

import (
	"fmt"
	"sync"
)

// maxPooledClass caps the slab size the free lists retain: classes above
// 1<<26 elements (512 MiB of float64) are returned to the GC instead of
// pooled, so one giant transient request cannot pin memory forever.
const maxPooledClass = 26

// Arena is a size-classed free-list allocator for float64 slabs. Every
// slab is allocated at exactly the requested length; the power-of-two
// class of its capacity only keys the free list it returns to, so a
// request reuses the shortest released slab of its class that can hold
// it. All methods are safe for concurrent use, and all are nil-tolerant:
// a nil *Arena degrades to plain make with no pooling, so code paths can
// run arena-less (tests, one-shot tools) without guards.
type Arena struct {
	mu     sync.Mutex
	floats map[uint][][]float64

	allocs, reuses uint64
	bytes          int64
}

// New returns an empty arena.
func New() *Arena {
	return &Arena{floats: make(map[uint][][]float64)}
}

// sizeClass returns the power-of-two class exponent covering n (n > 0).
func sizeClass(n int) uint {
	c := uint(0)
	for 1<<c < n {
		c++
	}
	return c
}

// Floats returns a zeroed slab of exactly n float64s. It reuses the
// shortest released slab of n's size class whose capacity holds n (its
// capacity may exceed n by less than the class width) and otherwise
// allocates a fresh slab with capacity n.
func (a *Arena) Floats(n int) []float64 {
	if n <= 0 {
		return nil
	}
	if a == nil {
		return make([]float64, n)
	}
	c := sizeClass(n)
	a.mu.Lock()
	// Best fit, so a short request never takes the slab a longer request
	// of the same class needs while both are held (first fit would make
	// the longer one allocate fresh); newest first on ties, the likeliest
	// to still be cache-warm.
	free := a.floats[c]
	best := -1
	for i := len(free) - 1; i >= 0; i-- {
		if k := cap(free[i]); k >= n && (best < 0 || k < cap(free[best])) {
			best = i
			if k == n {
				break
			}
		}
	}
	if best >= 0 {
		s := free[best]
		last := len(free) - 1
		copy(free[best:], free[best+1:])
		free[last] = nil
		a.floats[c] = free[:last]
		a.reuses++
		a.bytes += 8 * int64(cap(s))
		a.mu.Unlock()
		s = s[:n]
		clear(s)
		return s
	}
	a.allocs++
	a.bytes += 8 * int64(n)
	a.mu.Unlock()
	return make([]float64, n)
}

// ReleaseFloats returns a slab obtained from Floats to the free list of
// its capacity's size class. The caller must not touch the slab (or any
// view into it) afterwards. Empty slabs and slabs above the pooling cap
// are dropped for the GC instead.
func (a *Arena) ReleaseFloats(s []float64) {
	if a == nil || cap(s) == 0 {
		return
	}
	c := sizeClass(cap(s))
	a.mu.Lock()
	a.bytes -= 8 * int64(cap(s))
	if c <= maxPooledClass {
		a.floats[c] = append(a.floats[c], s[:0])
	}
	a.mu.Unlock()
}

// Stats reports allocator traffic: cumulative fresh slab allocations and
// free-list reuses, and the capacity bytes of the slabs currently handed
// out (raised by Floats, lowered by ReleaseFloats). A fleet of sessions
// sharing one arena should see Reuses dominate Allocs once session churn
// reaches steady state, and Bytes track the open sessions' window
// storage. Bytes is signed so that releasing memory the arena never
// handed out shows up as a deficit rather than wrapping around.
type Stats struct {
	Allocs uint64
	Reuses uint64
	Bytes  int64
}

// Stats returns a snapshot of the allocator counters.
func (a *Arena) Stats() Stats {
	if a == nil {
		return Stats{}
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return Stats{Allocs: a.allocs, Reuses: a.reuses, Bytes: a.bytes}
}

// Matrix is a dense channel-major matrix: row r (one subcarrier's or one
// channel's time series) is the contiguous slice Data[r*cols : (r+1)*cols]
// of a single flat backing slab, so iterating one row is a sequential
// memory scan and the whole matrix is one allocation (plus row headers).
type Matrix struct {
	data []float64
	view [][]float64
}

// NewMatrix allocates a rows × cols matrix from the arena (nil a = plain
// make). Rows are capped at their extent so an append can never bleed into
// the next row's storage.
func NewMatrix(a *Arena, rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("arena: matrix shape %d x %d", rows, cols))
	}
	m := &Matrix{
		data: a.Floats(rows * cols),
		view: make([][]float64, rows),
	}
	for r := 0; r < rows; r++ {
		m.view[r] = m.data[r*cols : (r+1)*cols : (r+1)*cols]
	}
	return m
}

// Row returns row r's contiguous column view.
func (m *Matrix) Row(r int) []float64 { return m.view[r] }

// Rows returns the [][]float64 header over the shared slab — the shape the
// pipeline stages consume. The headers are allocated once; callers may
// re-slice individual rows (they stay inside the slab thanks to the
// three-index caps) but must not grow them.
func (m *Matrix) Rows() [][]float64 { return m.view }

// Release returns the backing slab to the arena. The matrix (and every
// row view handed out) is dead afterwards.
func (m *Matrix) Release(a *Arena) {
	if m == nil {
		return
	}
	a.ReleaseFloats(m.data)
	m.data = nil
	m.view = nil
}
