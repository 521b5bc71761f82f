package dsp

import (
	"math"
	"math/bits"
)

// ExactSum accumulates float64 values without rounding and rounds once,
// correctly, when read. The result therefore depends only on the multiset
// of values added — not on their order, nor on how they were split across
// accumulators before a Merge — which is what lets the streaming Monitor
// keep per-block partial sums and still reproduce the batch pipeline's
// circular mean and amplitude gate bit for bit.
//
// The state is a 2176-bit two's-complement fixed-point integer in units of
// 2⁻¹¹¹², wide enough for every finite float64 (2⁻¹⁰⁷⁴ … 2¹⁰²⁴) plus 39
// bits of headroom: the sum is exact for up to 2³⁹ additions even of
// values near math.MaxFloat64. Values whose bits fall inside limbs 16–17
// (multiples of 2⁻⁸⁸ below 2²⁸ in magnitude — every CSI amplitude and
// nearly every sine or cosine) take a branch-free fast path that defers
// the carry out of that limb pair to a signed counter; every other finite
// value is added with full carry propagation.
//
// Non-finite inputs are summed separately in plain float64 arithmetic, and
// when any was added Float64 returns that sum (+Inf, −Inf or NaN), as a
// naive loop would. The zero value is an empty sum, ready to use.
type ExactSum struct {
	limbs [sumLimbs]uint64
	// carry is the signed carry out of the fast limb pair not yet folded
	// into limbs[sumFastLimb+2:].
	carry int64
	// nonFinite is the float64 sum of the non-finite inputs; 0 when none
	// was added (any non-finite sum is itself non-zero).
	nonFinite float64
}

const (
	sumLimbs = 34
	// sumUnitBit is the bit index of 2⁰ in the limb integer. 2⁻¹⁰⁷⁴ then
	// sits at bit 38 and the top of the float64 range at bit 2136.
	sumUnitBit = 1112
	// sumFastLimb is the lower limb of the fast pair; its bit 0 is 2⁻⁸⁸.
	sumFastLimb = 16
	// sumFastMinExp is the biased exponent whose mantissa LSB lands on bit
	// 0 of the fast pair (a float64's LSB is 2^(e−1075)).
	sumFastMinExp = sumFastLimb*64 - sumUnitBit + 1075
	// sumFastMaxShift is the largest mantissa shift into the fast pair:
	// one 64-bit multiply places it, and it stays clear of the pair's sign
	// bit.
	sumFastMaxShift = 63
	// sumMinBit is the bit index of 2⁻¹⁰⁷⁴, the smallest subnormal.
	sumMinBit = sumUnitBit - 1074

	fracMask = 1<<52 - 1
)

// Add adds x to the sum exactly.
func (s *ExactSum) Add(x float64) {
	b := math.Float64bits(x)
	sh := b>>52&0x7ff - sumFastMinExp // wraps for exponents below the range
	if sh > sumFastMaxShift {
		s.addSlow(b)
		return
	}
	hi, lo := bits.Mul64(b&fracMask|1<<52, 1<<(sh&63))
	// For x < 0 add the two's complement, ^(hi, lo) + 1, with the +1 as
	// the carry in; the sign's extension above the pair is a −1 in the
	// deferred carry.
	sign := b >> 63
	neg := -sign
	var c uint64
	s.limbs[sumFastLimb], c = bits.Add64(s.limbs[sumFastLimb], lo^neg, sign)
	s.limbs[sumFastLimb+1], c = bits.Add64(s.limbs[sumFastLimb+1], hi^neg, c)
	s.carry += int64(c) + int64(neg)
}

// addSlow adds a value outside the fast range: zero, a subnormal, a very
// small or very large normal, or a non-finite value.
func (s *ExactSum) addSlow(b uint64) {
	e := int(b >> 52 & 0x7ff)
	m := b & fracMask
	switch {
	case e == 0x7ff:
		s.nonFinite += math.Float64frombits(b)
		return
	case e == 0:
		if m == 0 {
			return
		}
		e = 1 // subnormal: same scale as the smallest normal, no implicit bit
	default:
		m |= 1 << 52
	}
	pos := e - 1075 + sumUnitBit
	i, off := pos>>6, uint(pos&63)
	lo, hi := m<<off, m>>(64-off)
	var c uint64
	if b>>63 == 0 {
		s.limbs[i], c = bits.Add64(s.limbs[i], lo, 0)
		s.limbs[i+1], c = bits.Add64(s.limbs[i+1], hi, c)
		for j := i + 2; c != 0 && j < sumLimbs; j++ {
			s.limbs[j], c = bits.Add64(s.limbs[j], 0, c)
		}
		return
	}
	s.limbs[i], c = bits.Sub64(s.limbs[i], lo, 0)
	s.limbs[i+1], c = bits.Sub64(s.limbs[i+1], hi, c)
	for j := i + 2; c != 0 && j < sumLimbs; j++ {
		s.limbs[j], c = bits.Sub64(s.limbs[j], 0, c)
	}
}

// Merge adds every value o holds to s, exactly. o is not modified.
func (s *ExactSum) Merge(o *ExactSum) {
	var c uint64
	for i := range s.limbs {
		s.limbs[i], c = bits.Add64(s.limbs[i], o.limbs[i], c)
	}
	s.carry += o.carry
	s.nonFinite += o.nonFinite
}

// Float64 returns the sum rounded to the nearest float64, ties to even:
// ±Inf when it lies beyond the float64 range, +0 when it is exactly zero,
// and the plain sum of the non-finite inputs when there were any.
func (s *ExactSum) Float64() float64 {
	if s.nonFinite != 0 {
		return s.nonFinite
	}
	v := s.limbs
	var c uint64
	v[sumFastLimb+2], c = bits.Add64(v[sumFastLimb+2], uint64(s.carry), 0)
	ext := uint64(s.carry >> 63)
	for i := sumFastLimb + 3; i < sumLimbs; i++ {
		v[i], c = bits.Add64(v[i], ext, c)
	}
	neg, sign := v[sumLimbs-1]>>63 != 0, 1
	if neg {
		sign = -1
		c = 1
		for i := range v {
			v[i], c = bits.Add64(^v[i], 0, c)
		}
	}
	top := sumLimbs - 1
	for top >= 0 && v[top] == 0 {
		top--
	}
	if top < 0 {
		return 0
	}
	msb := top*64 + 63 - bits.LeadingZeros64(v[top])
	if msb-sumUnitBit >= 1024 {
		return math.Inf(sign)
	}
	// Keep the 53 bits below and including msb, or fewer when the result
	// is subnormal (nothing below bit sumMinBit is ever set).
	lsb := max(msb-52, sumMinBit)
	i, off := lsb>>6, uint(lsb&63)
	mant := v[i] >> off
	if off != 0 {
		mant |= v[i+1] << (64 - off)
	}
	// Round to nearest even on the bit below lsb and everything under it.
	r := lsb - 1
	ri, roff := r>>6, uint(r&63)
	if v[ri]>>roff&1 != 0 {
		sticky := v[ri]&(1<<roff-1) != 0
		for j := 0; j < ri && !sticky; j++ {
			sticky = v[j] != 0
		}
		if sticky || mant&1 != 0 {
			if mant++; mant == 1<<53 {
				mant >>= 1
				lsb++
			}
		}
	}
	var f uint64
	if mant < 1<<52 {
		f = mant // subnormal (lsb is sumMinBit)
	} else {
		exp := uint64(lsb - sumMinBit + 1)
		if exp >= 0x7ff {
			return math.Inf(sign)
		}
		f = exp<<52 | mant&fracMask
	}
	if neg {
		f |= 1 << 63
	}
	return math.Float64frombits(f)
}
