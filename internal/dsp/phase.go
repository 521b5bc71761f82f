package dsp

import "math"

// WrapPhase maps an angle in radians to (-π, π].
func WrapPhase(theta float64) float64 {
	if theta > -math.Pi && theta <= math.Pi {
		return theta
	}
	twoPi := 2 * math.Pi
	theta = math.Mod(theta, twoPi)
	if theta <= -math.Pi {
		theta += twoPi
	} else if theta > math.Pi {
		theta -= twoPi
	}
	return theta
}

// UnwrapPhase removes 2π jumps from a phase sequence, producing a
// continuous signal. The first sample is preserved.
func UnwrapPhase(phase []float64) []float64 {
	return UnwrapPhaseInto(nil, phase)
}

// UnwrapPhaseInto is UnwrapPhase writing into dst (grown as needed). dst
// must not alias phase: the unwrap reads each input sample after its
// predecessor's output has been written.
func UnwrapPhaseInto(dst, phase []float64) []float64 {
	out := grow(dst, len(phase))
	if len(phase) == 0 {
		return out
	}
	out[0] = phase[0]
	offset := 0.0
	for i := 1; i < len(phase); i++ {
		d := phase[i] - phase[i-1]
		if d > math.Pi {
			offset -= 2 * math.Pi
		} else if d < -math.Pi {
			offset += 2 * math.Pi
		}
		out[i] = phase[i] + offset
	}
	return out
}
