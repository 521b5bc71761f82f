package arena

import "fmt"

// Ring is a columnar ring buffer over independent channels sharing one
// flat slab. A "channel" is one (antenna-pair, subcarrier) stream — in
// the Monitor, its wrapped phase difference — so a single Advance admits
// one time sample across every channel at once.
//
// Layout: element (channel c, slot s) lives at
//
//	data[c*capacity + s]
//
// so one channel's history is contiguous — the property every DSP stage
// wants — and slot s for absolute sample index i is i mod capacity. The
// capacity is exactly what the caller asked for (a Monitor's window
// length), so the slab holds no slot the window never reads.
//
// Indexing is absolute: Head is the count of samples ever admitted, and
// sample i remains addressable while Head-capacity <= i < Head. Views
// validate against that retention window, so wraparound can never be
// observed as aliased data — only as an explicit out-of-retention error.
//
// A Ring is single-writer: one goroutine calls Advance and writes the
// current slot; concurrent readers are only safe on slots strictly
// before Head (the engine's stride reads satisfy this by construction).
type Ring struct {
	capacity int
	head     int64
	// slot is head mod capacity, wrapped incrementally by Advance so the
	// per-packet write path never divides.
	slot int
	data []float64
	// cols caches one contiguous column header per channel so the hot
	// ingest path indexes straight into its column slice.
	cols [][]float64
}

// newRing builds the ring geometry over data, which must be
// channels*capacity long and is sliced into cached per-column headers.
func newRing(channels, capacity int, data []float64) *Ring {
	if channels <= 0 {
		panic(fmt.Sprintf("arena: ring geometry %d channels", channels))
	}
	if capacity <= 0 {
		panic(fmt.Sprintf("arena: ring capacity %d", capacity))
	}
	r := &Ring{
		capacity: capacity,
		data:     data,
		cols:     make([][]float64, channels),
	}
	for i := range r.cols {
		lo := i * capacity
		r.cols[i] = data[lo : lo+capacity : lo+capacity]
	}
	return r
}

// NewFloatRing allocates a ring of exactly capacity samples per column
// from the arena (nil a = plain make).
func NewFloatRing(a *Arena, channels, capacity int) *Ring {
	return newRing(channels, capacity, a.Floats(channels*capacity))
}

// Capacity returns the per-channel sample capacity.
func (r *Ring) Capacity() int { return r.capacity }

// Head returns the absolute index one past the newest admitted sample —
// equivalently the count of samples ever admitted since the last Reset.
func (r *Ring) Head() int64 { return r.head }

// Slot returns the in-column slot the *next* sample (index Head) will
// occupy. Writers fill col[Slot()] across channels, then call Advance.
func (r *Ring) Slot() int { return r.slot }

// Advance commits the sample written at Slot across all channels.
func (r *Ring) Advance() {
	r.head++
	if r.slot++; r.slot == r.capacity {
		r.slot = 0
	}
}

// Reset forgets all samples; absolute indexing restarts at zero.
func (r *Ring) Reset() { r.head, r.slot = 0, 0 }

// Column returns the full backing column for channel c — capacity
// elements in slot order, not time order. It is the write surface for
// ingest; readers should use View for time-ordered access.
func (r *Ring) Column(c int) []float64 { return r.cols[c] }

// Columns returns the per-channel column headers (the cached headers — no
// allocation), so hot ingest loops can index them by channel.
func (r *Ring) Columns() [][]float64 { return r.cols }

// Release returns the backing slab to the arena. The ring and every
// column/view into it are dead afterwards.
func (r *Ring) Release(a *Arena) {
	if r == nil || r.data == nil {
		return
	}
	a.ReleaseFloats(r.data)
	r.data = nil
	r.cols = nil
}

// View is a zero-copy, time-ordered window over one ring column: at most
// two contiguous slices (the window may straddle the wrap point), oldest
// samples first. Iterating a, then b visits the window in admission
// order, the order the batch DSP reads a linear series in.
type View struct {
	a, b  []float64
	start int64
}

// View returns a window of n samples of channel c starting at absolute
// sample index start. The window must lie entirely within retention:
// start >= Head-Capacity and start+n <= Head.
func (r *Ring) View(c int, start int64, n int) (View, error) {
	if n < 0 || int64(n) > int64(r.capacity) {
		return View{}, fmt.Errorf("arena: view length %d exceeds ring capacity %d", n, r.capacity)
	}
	if start < 0 || start < r.head-int64(r.capacity) || start+int64(n) > r.head {
		return View{}, fmt.Errorf("arena: view [%d,%d) outside retention [%d,%d)",
			start, start+int64(n), max64(0, r.head-int64(r.capacity)), r.head)
	}
	col := r.cols[c]
	lo := int(start % int64(r.capacity))
	if lo+n <= r.capacity {
		return View{a: col[lo : lo+n : lo+n], start: start}, nil
	}
	k := r.capacity - lo
	return View{
		a:     col[lo:r.capacity:r.capacity],
		b:     col[0 : n-k : n-k],
		start: start,
	}, nil
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// Len returns the window length.
func (v View) Len() int { return len(v.a) + len(v.b) }

// Start returns the absolute sample index of the window's oldest sample.
func (v View) Start() int64 { return v.start }

// At returns the i-th sample of the window (0 = oldest).
func (v View) At(i int) float64 {
	if i < len(v.a) {
		return v.a[i]
	}
	return v.b[i-len(v.a)]
}

// Slices returns the window's backing segments, oldest first. b is nil
// when the window does not straddle the wrap point.
func (v View) Slices() (a, b []float64) { return v.a, v.b }

// CopyTo linearizes the window into dst (which must hold Len elements)
// and returns the number of samples copied.
func (v View) CopyTo(dst []float64) int {
	n := copy(dst, v.a)
	n += copy(dst[n:], v.b)
	return n
}
