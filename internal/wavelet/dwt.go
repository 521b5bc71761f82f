package wavelet

import (
	"fmt"
	"math"
)

// extend pads x with pad samples on each side by half-sample symmetric
// mirroring (… x1 x0 | x0 x1 …), MATLAB's dwtmode('sym') used by the
// original PhaseBeat implementation.
func extend(x []float64, pad int) []float64 {
	n := len(x)
	out := make([]float64, 0, n+2*pad)
	idx := func(i int) float64 {
		if n == 1 {
			return x[0]
		}
		period := 2 * n
		i %= period
		if i < 0 {
			i += period
		}
		if i >= n {
			i = period - 1 - i
		}
		return x[i]
	}
	for i := -pad; i < n+pad; i++ {
		out = append(out, idx(i))
	}
	return out
}

// DWT performs one analysis step, returning the approximation and detail
// coefficient vectors, each of length floor((len(x)+L-1)/2), over the
// symmetric extension of x.
func DWT(x []float64, w *Wavelet) (approx, detail []float64) {
	l := w.Len()
	n := len(x)
	if n == 0 {
		return nil, nil
	}
	ext := extend(x, l-1)
	nc := (n + l - 1) / 2
	approx = make([]float64, nc)
	detail = make([]float64, nc)
	// conv(ext, f)[t] = Σ_j ext[t-j] f[j]; we sample the valid region at
	// t = l-1 + 2k + 1.
	for k := 0; k < nc; k++ {
		t := l + 2*k // = (l-1) + (2k+1)
		var sa, sd float64
		for j := 0; j < l; j++ {
			v := ext[t-j]
			sa += v * w.DecLo[j]
			sd += v * w.DecHi[j]
		}
		approx[k] = sa
		detail[k] = sd
	}
	return approx, detail
}

// IDWT performs one synthesis step, reconstructing a signal of length n
// from approximation and detail coefficients produced by DWT.
func IDWT(approx, detail []float64, w *Wavelet, n int) ([]float64, error) {
	la := len(approx)
	if la != len(detail) {
		return nil, fmt.Errorf("wavelet: coefficient lengths differ: %d vs %d", la, len(detail))
	}
	if la == 0 {
		return nil, fmt.Errorf("wavelet: empty coefficients")
	}
	l := w.Len()
	full := 2*la - 1 + l - 1 // length of upsampled-convolved signal
	if n > full {
		return nil, fmt.Errorf("wavelet: cannot reconstruct %d samples from %d coefficients", n, la)
	}
	s := make([]float64, full)
	for k := 0; k < la; k++ {
		pos := 2 * k
		av, dv := approx[k], detail[k]
		for j := 0; j < l; j++ {
			s[pos+j] += av*w.RecLo[j] + dv*w.RecHi[j]
		}
	}
	start := (full - n) / 2
	out := make([]float64, n)
	copy(out, s[start:start+n])
	return out, nil
}

// Decomposition is the result of a multi-level DWT.
type Decomposition struct {
	// Approx is the level-L approximation coefficient vector α_L.
	Approx []float64
	// Details holds the detail coefficient vectors; Details[0] is the
	// finest level β_1 (highest frequencies) and Details[L-1] is β_L.
	Details [][]float64
	// Lengths records the input length at each level (Lengths[0] is the
	// original signal length), needed for exact reconstruction.
	Lengths []int

	wavelet *Wavelet
}

// Levels returns the number of decomposition levels L.
func (d *Decomposition) Levels() int { return len(d.Details) }

// MaxLevel returns the deepest useful decomposition level for a signal of
// length n with filter length l (pywt's dwt_max_level).
func MaxLevel(n, l int) int {
	if l < 2 || n < l {
		return 0
	}
	return int(math.Log2(float64(n) / float64(l-1)))
}

// Wavedec performs a level-`levels` wavelet decomposition of x.
func Wavedec(x []float64, w *Wavelet, levels int) (*Decomposition, error) {
	if levels < 1 {
		return nil, fmt.Errorf("%w: %d", ErrBadLevel, levels)
	}
	if maxL := MaxLevel(len(x), w.Len()); levels > maxL {
		return nil, fmt.Errorf("%w: %d exceeds max %d for %d samples with %s",
			ErrBadLevel, levels, maxL, len(x), w.Name)
	}
	d := &Decomposition{
		Details: make([][]float64, 0, levels),
		Lengths: make([]int, 0, levels),
		wavelet: w,
	}
	cur := x
	for lev := 0; lev < levels; lev++ {
		d.Lengths = append(d.Lengths, len(cur))
		a, det := DWT(cur, w)
		d.Details = append(d.Details, det)
		cur = a
	}
	d.Approx = cur
	return d, nil
}

// Waverec reconstructs the original signal from all coefficients.
func (d *Decomposition) Waverec() ([]float64, error) {
	return d.reconstruct(true, nil)
}

// ReconstructApprox reconstructs a full-rate signal from the level-L
// approximation only (all detail bands zeroed) — PhaseBeat's denoised
// breathing signal.
func (d *Decomposition) ReconstructApprox() ([]float64, error) {
	keep := make([]bool, d.Levels())
	return d.reconstruct(true, keep)
}

// ReconstructDetails reconstructs a full-rate signal from the selected
// detail levels only (1-based: level 1 is the finest β_1). PhaseBeat's
// heart signal is ReconstructDetails(L-1, L).
func (d *Decomposition) ReconstructDetails(levels ...int) ([]float64, error) {
	keep := make([]bool, d.Levels())
	for _, lev := range levels {
		if lev < 1 || lev > d.Levels() {
			return nil, fmt.Errorf("%w: detail level %d of %d", ErrBadLevel, lev, d.Levels())
		}
		keep[lev-1] = true
	}
	return d.reconstruct(false, keep)
}

// reconstruct runs the synthesis bank bottom-up. keepApprox selects the
// approximation; keepDetails selects detail levels (nil keeps all).
func (d *Decomposition) reconstruct(keepApprox bool, keepDetails []bool) ([]float64, error) {
	levels := d.Levels()
	cur := make([]float64, len(d.Approx))
	if keepApprox {
		copy(cur, d.Approx)
	}
	for lev := levels - 1; lev >= 0; lev-- {
		det := d.Details[lev]
		if keepDetails != nil && !keepDetails[lev] {
			det = make([]float64, len(d.Details[lev]))
		}
		out, err := IDWT(cur, det, d.wavelet, d.Lengths[lev])
		if err != nil {
			return nil, fmt.Errorf("level %d: %w", lev+1, err)
		}
		cur = out
	}
	return cur, nil
}
