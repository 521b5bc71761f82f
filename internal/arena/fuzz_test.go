package arena

import (
	"testing"
	"testing/quick"
)

// FuzzRingView drives a float ring through an arbitrary push sequence and
// checks every in-retention view against an independently kept reference
// history: views must report exactly the admitted values (no aliasing
// across channels, no stale pre-wrap data) and every out-of-retention
// request must fail rather than silently alias.
func FuzzRingView(f *testing.F) {
	f.Add(uint8(3), uint8(4), uint16(37), uint16(5))
	f.Add(uint8(1), uint8(1), uint16(9), uint16(0))
	f.Add(uint8(7), uint8(5), uint16(200), uint16(123))
	f.Fuzz(func(t *testing.T, channelsIn, capIn uint8, pushes, probe uint16) {
		channels := int(channelsIn)%8 + 1
		capacity := int(capIn)%33 + 1
		n := int(pushes) % 300
		r := NewFloatRing(nil, channels, capacity)

		// Reference: the full admitted history per channel.
		hist := make([][]float64, channels)
		for i := 0; i < n; i++ {
			slot := r.Slot()
			cols := r.Columns()
			for c := 0; c < channels; c++ {
				v := value(c, int64(i))
				cols[c][slot] = v
				hist[c] = append(hist[c], v)
			}
			r.Advance()
		}

		if r.Head() != int64(n) {
			t.Fatalf("head = %d after %d pushes", r.Head(), n)
		}
		lo := int64(0)
		if n > capacity {
			lo = int64(n - capacity)
		}
		// Walk a deterministic probe pattern derived from the fuzz input:
		// window starts and lengths spanning the whole retention range.
		c := int(probe) % channels
		ref := hist[c]
		for start := lo; start <= int64(n); start++ {
			maxLen := int64(n) - start
			for _, wl := range []int64{0, 1, maxLen / 2, maxLen} {
				if wl < 0 || wl > maxLen {
					continue
				}
				v, err := r.View(c, start, int(wl))
				if err != nil {
					t.Fatalf("view [%d,%d) in retention [%d,%d) rejected: %v", start, start+wl, lo, n, err)
				}
				got := linear(v)
				if len(got) != int(wl) {
					t.Fatalf("view len = %d, want %d", len(got), wl)
				}
				for k, g := range got {
					if want := ref[start+int64(k)]; g != want {
						t.Fatalf("view[%d] (abs %d) = %v, want %v", k, start+int64(k), g, want)
					}
				}
			}
		}
		// Out-of-retention and malformed requests must error.
		if lo > 0 {
			if _, err := r.View(c, lo-1, 1); err == nil {
				t.Fatal("view before retention accepted")
			}
		}
		if _, err := r.View(c, int64(n), 1); err == nil {
			t.Fatal("view past head accepted")
		}
		if _, err := r.View(c, lo, capacity+1); err == nil {
			t.Fatal("view longer than capacity accepted")
		}
	})
}

// TestViewNoCrossChannelAliasing is the quick-check property form of the
// alias guarantee: mutating one channel's column through its write surface
// never changes what any other channel's view reports.
func TestViewNoCrossChannelAliasing(t *testing.T) {
	prop := func(seed uint16) bool {
		channels := int(seed>>1)%6 + 2
		capacity := int(seed>>4)%17 + 1
		r := NewFloatRing(nil, channels, capacity)
		total := capacity + int(seed)%capacity + 1 // force wraparound
		for i := 0; i < total; i++ {
			slot := r.Slot()
			for c := 0; c < channels; c++ {
				r.Columns()[c][slot] = value(c, int64(i))
			}
			r.Advance()
		}
		victim := int(seed) % channels
		other := (victim + 1) % channels
		start := r.Head() - int64(capacity)
		before := make([]float64, capacity)
		v, err := r.View(other, start, capacity)
		if err != nil {
			return false
		}
		v.CopyTo(before)
		// Scribble over the victim channel's entire column.
		col := r.Columns()[victim]
		for i := range col {
			col[i] = -1
		}
		v2, err := r.View(other, start, capacity)
		if err != nil {
			return false
		}
		for i, got := range linear(v2) {
			if got != before[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
