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
	if len(s) != 100 || cap(s) != 128 {
		t.Fatalf("Floats(100): len=%d cap=%d, want 100/128", len(s), cap(s))
	}
	for i := range s {
		s[i] = float64(i) + 1
	}
	a.ReleaseFloats(s)
	// Same class, different length: must come back zeroed from the free list.
	r := a.Floats(70)
	if len(r) != 70 || cap(r) != 128 {
		t.Fatalf("Floats(70): len=%d cap=%d, want 70/128", len(r), cap(r))
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
	if st.Allocs != 1 || st.Reuses != 1 {
		t.Fatalf("stats = %+v, want 1 alloc / 1 reuse", st)
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

func TestArenaRejectsForeignSlabs(t *testing.T) {
	a := New()
	// Capacity 100 is not a power of two: must be dropped, not pooled.
	a.ReleaseFloats(make([]float64, 100))
	if len(a.floats) != 0 {
		t.Fatalf("foreign slab was pooled")
	}
	a.ReleaseFloats(nil)
	if len(a.floats) != 0 {
		t.Fatalf("nil slab was pooled")
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
