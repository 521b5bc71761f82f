package arena

import (
	"sync"
	"testing"
)

func TestSizeClass(t *testing.T) {
	cases := []struct {
		n    int
		want uint
	}{
		{1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {8, 3}, {9, 4}, {1024, 10}, {1025, 11},
	}
	for _, c := range cases {
		if got := sizeClass(c.n); got != c.want {
			t.Errorf("sizeClass(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestArenaReuseAndZeroing(t *testing.T) {
	a := New()
	s := a.Floats(100)
	if len(s) != 100 || cap(s) != 100 {
		t.Fatalf("Floats(100): len=%d cap=%d, want exactly 100/100", len(s), cap(s))
	}
	if got := a.Stats().Bytes; got != 800 {
		t.Fatalf("Bytes after Floats(100) = %d, want 800", got)
	}
	for i := range s {
		s[i] = float64(i) + 1
	}
	a.ReleaseFloats(s)
	if got := a.Stats().Bytes; got != 0 {
		t.Fatalf("Bytes after release = %d, want 0", got)
	}
	// Same class, shorter request: the larger released slab is reused,
	// trimmed to the request and zeroed.
	r := a.Floats(70)
	if len(r) != 70 || cap(r) != 100 {
		t.Fatalf("Floats(70): len=%d cap=%d, want 70/100", len(r), cap(r))
	}
	if &r[0] != &s[0] {
		t.Fatalf("Floats(70) did not reuse the released slab")
	}
	for i, v := range r {
		if v != 0 {
			t.Fatalf("reused slab not zeroed at %d: %v", i, v)
		}
	}
	st := a.Stats()
	if st.Allocs != 1 || st.Reuses != 1 || st.Bytes != 800 {
		t.Fatalf("stats = %+v, want 1 alloc / 1 reuse / 800 bytes out", st)
	}
}

// TestArenaNeverServesShortSlab: a request larger than every free slab of
// its size class allocates fresh (never a short slab), and a request
// reuses the shortest free slab that holds it, leaving longer ones for
// longer requests held at the same time.
func TestArenaNeverServesShortSlab(t *testing.T) {
	a := New()
	s90, s120 := a.Floats(90), a.Floats(120) // both class 7 (65..128)
	a.ReleaseFloats(s90)
	a.ReleaseFloats(s120)
	big := a.Floats(125)
	if len(big) != 125 || cap(big) != 125 {
		t.Fatalf("Floats(125): len=%d cap=%d, want a fresh 125/125 slab", len(big), cap(big))
	}
	if st := a.Stats(); st.Allocs != 3 || st.Reuses != 0 {
		t.Fatalf("stats = %+v, want 3 allocs / 0 reuses", st)
	}
	// Taking the newest fitting slab (the 120) here would leave nothing
	// for the 100-request below.
	small := a.Floats(80)
	if cap(small) != 90 || &small[0] != &s90[0] {
		t.Fatalf("Floats(80) got cap %d, want the released 90-slab", cap(small))
	}
	mid := a.Floats(100)
	if cap(mid) != 120 || &mid[0] != &s120[0] {
		t.Fatalf("Floats(100) got cap %d, want the released 120-slab", cap(mid))
	}
	if st := a.Stats(); st.Allocs != 3 || st.Reuses != 2 || st.Bytes != 8*(125+120+90) {
		t.Fatalf("stats = %+v, want 3 allocs / 2 reuses / %d bytes out", st, 8*(125+120+90))
	}
}

func TestArenaNilSafe(t *testing.T) {
	var a *Arena
	s := a.Floats(10)
	if len(s) != 10 {
		t.Fatalf("nil arena Floats: len=%d", len(s))
	}
	a.ReleaseFloats(s)
	if st := a.Stats(); st != (Stats{}) {
		t.Fatalf("nil arena stats = %+v", st)
	}
	if got := a.Floats(0); got != nil {
		t.Fatalf("Floats(0) = %v, want nil", got)
	}
}

// TestArenaRejectsForeignSlabs pins the pooling rule: a released slab is
// keyed by its capacity's size class — wherever it came from — and only
// ever serves requests it can hold; empty slabs are dropped.
func TestArenaRejectsForeignSlabs(t *testing.T) {
	a := New()
	a.ReleaseFloats(nil)
	a.ReleaseFloats(make([]float64, 0))
	if len(a.floats) != 0 {
		t.Fatalf("empty slab was pooled")
	}
	foreign := make([]float64, 10, 100)
	a.ReleaseFloats(foreign)
	if got := len(a.floats[sizeClass(100)]); got != 1 {
		t.Fatalf("class %d holds %d slabs, want the foreign one", sizeClass(100), got)
	}
	if s := a.Floats(101); cap(s) != 101 {
		t.Fatalf("Floats(101) got cap %d: a short slab was served", cap(s))
	}
	if s := a.Floats(100); &s[:1][0] != &foreign[:1][0] || len(s) != 100 {
		t.Fatalf("Floats(100) did not reuse the pooled 100-capacity slab")
	}
}

// TestArenaConcurrent hammers one arena from many goroutines; run under
// -race this is the fleet-sharing safety check.
func TestArenaConcurrent(t *testing.T) {
	a := New()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				n := 1 + (g*31+i*7)%500
				f := a.Floats(n)
				for j := range f {
					f[j] = float64(g)
				}
				a.ReleaseFloats(f)
			}
		}(g)
	}
	wg.Wait()
	st := a.Stats()
	if st.Allocs+st.Reuses == 0 {
		t.Fatalf("no allocator traffic recorded: %+v", st)
	}
}

func TestMatrixLayout(t *testing.T) {
	a := New()
	m := NewMatrix(a, 3, 5)
	if got := len(m.Rows()); got != 3 {
		t.Fatalf("rows = %d, want 3", got)
	}
	for r := 0; r < 3; r++ {
		row := m.Row(r)
		if len(row) != 5 || cap(row) != 5 {
			t.Fatalf("row %d: len=%d cap=%d", r, len(row), cap(row))
		}
		for c := range row {
			row[c] = float64(r*10 + c)
		}
	}
	// Rows share one slab: row r starts where row r-1's storage ends.
	all := m.Rows()
	for r := 1; r < 3; r++ {
		if &all[r][0] != &m.data[r*5] {
			t.Fatalf("row %d not at slab offset", r)
		}
	}
	// Appending to a row must reallocate (three-index cap), never clobber
	// the neighbouring row.
	grown := append(all[0], 99)
	if &grown[0] == &all[0][0] && all[1][0] == 99 {
		t.Fatalf("append bled into next row")
	}
	if all[1][0] != 10 {
		t.Fatalf("row 1 corrupted: %v", all[1][0])
	}
	m.Release(a)
	if m.Rows() != nil {
		t.Fatalf("released matrix still has rows")
	}
	var nilM *Matrix
	nilM.Release(a) // must not panic
}

func TestMatrixZeroRows(t *testing.T) {
	m := NewMatrix(nil, 0, 7)
	if got := m.Rows(); len(got) != 0 {
		t.Fatalf("zero-row matrix rows = %d", len(got))
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("negative shape did not panic")
		}
	}()
	NewMatrix(nil, -1, 3)
}
