package csisim

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"

	"phasebeat/internal/trace"
)

// Config assembles a simulation.
type Config struct {
	// Env is the propagation environment.
	Env Environment
	// Persons are the monitored subjects (may be empty for an empty room).
	Persons []Person
	// NIC models the measurement impairments; nil uses DefaultImpairments.
	NIC *NICImpairments
	// SampleRate is the packet rate in Hz (0 → DefaultSampleRate).
	SampleRate float64
	// NumAntennas is the receive antenna count (0 → 3, like the
	// Intel 5300).
	NumAntennas int
	// Seed seeds the simulation's random stream; runs with equal seeds and
	// configs are identical.
	Seed int64
}

// VitalTruth is the ground truth the paper obtained from the NEULOG belt
// and the fingertip pulse oximeter.
type VitalTruth struct {
	// BreathingBPM is the true breathing rate in breaths per minute.
	BreathingBPM float64
	// HeartBPM is the true heart rate in beats per minute.
	HeartBPM float64
}

// Simulator generates CSI packets for a configured scene. It is not safe
// for concurrent use; create one per goroutine.
type Simulator struct {
	cfg     Config
	nic     NICImpairments
	rng     *rand.Rand
	subIdx  []int
	subFreq []float64
	static  [][]complex128   // [antenna][subcarrier] static-channel CSI
	perPath [][][]complex128 // [path][antenna][subcarrier] components

	packetIndex int
	// Per-person large-motion state: a random-walk path offset and its
	// current velocity, driven while the person is in a non-stationary
	// state.
	motionOffset []float64
	motionVel    []float64
	// Per-static-path shadowing state: a moving body intermittently blocks
	// individual multipath components, which is what makes large motion
	// events visible in the phase difference (paths arrive from different
	// angles, so per-path fading affects the two antennas differently).
	shadowPhase  []float64
	shadowFactor []float64
	// agcGain is the per-antenna AGC amplitude multiplier (random steps).
	agcGain []float64
}

// New validates the configuration and builds a simulator.
func New(cfg Config) (*Simulator, error) {
	if cfg.SampleRate == 0 {
		cfg.SampleRate = DefaultSampleRate
	}
	if cfg.SampleRate <= 0 {
		return nil, fmt.Errorf("csisim: sample rate must be positive, got %v", cfg.SampleRate)
	}
	if cfg.NumAntennas == 0 {
		cfg.NumAntennas = 3
	}
	if cfg.NumAntennas < 1 {
		return nil, fmt.Errorf("csisim: antenna count must be >= 1, got %d", cfg.NumAntennas)
	}
	if cfg.Env.CarrierHz == 0 {
		cfg.Env.CarrierHz = DefaultCarrierHz
	}
	if cfg.Env.AntennaSpacingM == 0 {
		cfg.Env.AntennaSpacingM = DefaultAntennaSpacingM
	}
	if err := cfg.Env.Validate(); err != nil {
		return nil, err
	}
	for i := range cfg.Persons {
		if err := cfg.Persons[i].Validate(); err != nil {
			return nil, fmt.Errorf("person %d: %w", i, err)
		}
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	var nic NICImpairments
	if cfg.NIC != nil {
		nic = *cfg.NIC
	} else {
		nic = DefaultImpairments(rng, cfg.NumAntennas)
	}
	if err := nic.Validate(cfg.NumAntennas); err != nil {
		return nil, err
	}

	s := &Simulator{
		cfg:          cfg,
		nic:          nic,
		rng:          rng,
		subIdx:       SubcarrierIndices(),
		subFreq:      SubcarrierFrequencies(cfg.Env.CarrierHz),
		motionOffset: make([]float64, len(cfg.Persons)),
		motionVel:    make([]float64, len(cfg.Persons)),
		shadowPhase:  make([]float64, len(cfg.Env.StaticPaths)),
		shadowFactor: make([]float64, len(cfg.Env.StaticPaths)),
		agcGain:      make([]float64, cfg.NumAntennas),
	}
	for i := range s.shadowFactor {
		s.shadowFactor[i] = 1
	}
	for i := range s.agcGain {
		s.agcGain[i] = 1
	}
	s.precomputeStatic()
	return s, nil
}

// precomputeStatic evaluates the person-independent channel term of
// eq. (2) for every antenna and subcarrier, keeping per-path components so
// that body shadowing can reweight them during motion.
func (s *Simulator) precomputeStatic() {
	ants := s.cfg.NumAntennas
	s.perPath = make([][][]complex128, len(s.cfg.Env.StaticPaths))
	for pi, p := range s.cfg.Env.StaticPaths {
		s.perPath[pi] = make([][]complex128, ants)
		for a := 0; a < ants; a++ {
			row := make([]complex128, len(s.subFreq))
			tau := p.DelayNS*1e-9 + s.antennaDelay(a, p.AoADeg)
			for i, f := range s.subFreq {
				row[i] = complex(p.Gain, 0) * cmplx.Rect(1, -2*math.Pi*f*tau)
			}
			s.perPath[pi][a] = row
		}
	}
	s.rebuildStatic()
}

// rebuildStatic sums the per-path components using the current shadow
// factors.
func (s *Simulator) rebuildStatic() {
	ants := s.cfg.NumAntennas
	if s.static == nil {
		s.static = make([][]complex128, ants)
		for a := 0; a < ants; a++ {
			s.static[a] = make([]complex128, len(s.subFreq))
		}
	}
	for a := 0; a < ants; a++ {
		row := s.static[a]
		for i := range row {
			row[i] = 0
		}
		for pi := range s.perPath {
			f := complex(s.shadowFactor[pi], 0)
			for i, v := range s.perPath[pi][a] {
				row[i] += f * v
			}
		}
	}
}

// antennaDelay returns the extra propagation delay at antenna a for a path
// arriving from the given angle (far-field uniform linear array).
func (s *Simulator) antennaDelay(antenna int, aoaDeg float64) float64 {
	return float64(antenna) * s.cfg.Env.AntennaSpacingM *
		math.Sin(aoaDeg*math.Pi/180) / SpeedOfLight
}

// Truth returns the ground-truth vital rates of every person.
func (s *Simulator) Truth() []VitalTruth {
	out := make([]VitalTruth, len(s.cfg.Persons))
	for i, p := range s.cfg.Persons {
		out[i] = VitalTruth{BreathingBPM: p.BreathingRateBPM, HeartBPM: p.HeartRateBPM}
	}
	return out
}

// NextPacket produces the next CSI packet. Consecutive calls advance the
// simulation clock by 1/SampleRate.
func (s *Simulator) NextPacket() trace.Packet {
	t := float64(s.packetIndex) / s.cfg.SampleRate
	dt := 1 / s.cfg.SampleRate
	ants := s.cfg.NumAntennas
	wall := s.cfg.Env.wallAmplitudeFactor()

	// Update per-person motion state and compute their instantaneous path
	// lengths and gains.
	type personTerm struct {
		length float64
		gain   float64
		aoa    float64
	}
	terms := make([]personTerm, 0, len(s.cfg.Persons))
	anyMotion := false
	for pi := range s.cfg.Persons {
		p := &s.cfg.Persons[pi]
		state := p.StateAt(t)
		// A moving torso sweeps through the Fresnel zone and reflects
		// specularly, more strongly than chest micro-motion (Fig. 3).
		motionBoost := 1.0
		switch state {
		case StateAbsent:
			continue
		case StateWalking:
			anyMotion = true
			motionBoost = 1.5
			// Velocity wanders around ±1 m/s; integrate into the offset.
			s.motionVel[pi] += s.rng.NormFloat64() * 0.5 * dt * 20
			if s.motionVel[pi] > 1.2 {
				s.motionVel[pi] = 1.2
			} else if s.motionVel[pi] < -1.2 {
				s.motionVel[pi] = -1.2
			}
			s.motionOffset[pi] += s.motionVel[pi] * dt
		case StateStandingUp:
			// Sustained torso translation ~0.5 m/s plus jitter.
			anyMotion = true
			motionBoost = 1.2
			s.motionOffset[pi] += (0.5 + s.rng.NormFloat64()*0.2) * dt
		default:
			// Stationary: a person who stops moving settles within about a
			// second; bleed the residual offset away with that constant.
			s.motionOffset[pi] *= 1 - math.Min(1, 1.0*dt)
			s.motionVel[pi] = 0
		}
		terms = append(terms, personTerm{
			length: p.pathLength(t) + s.motionOffset[pi],
			gain:   p.ReflectionGain * wall * motionBoost,
			aoa:    p.AoADeg,
		})
	}

	// Body shadowing: while anyone is moving, each static path's gain
	// fluctuates independently and deeply, producing the slow (~1 s
	// timescale, matching body movement) fades that make large motion
	// events stand out in the phase difference even after smoothing.
	if anyMotion {
		step := 2.2 * math.Sqrt(dt)
		for pi := range s.shadowPhase {
			s.shadowPhase[pi] += s.rng.NormFloat64() * step
			s.shadowFactor[pi] = 0.55 + 0.45*math.Cos(s.shadowPhase[pi])
		}
		s.rebuildStatic()
	}

	slope, offset := s.nic.packetErrors(s.rng, s.packetIndex)

	// One flat CSI slab per packet (see trace.NewPacket): the emission loop
	// writes each antenna row in place, and consumers that transpose into
	// columnar storage read adjacent memory. Allocation consumes no RNG, so
	// the error-model draw sequence below is unchanged.
	pkt := trace.NewPacket(t, ants, len(s.subFreq))
	for a := 0; a < ants; a++ {
		row := pkt.CSI[a]
		copy(row, s.static[a])
		for _, term := range terms {
			tau := term.length/SpeedOfLight + s.antennaDelay(a, term.aoa)
			g := complex(term.gain, 0)
			for i, f := range s.subFreq {
				row[i] += g * cmplx.Rect(1, -2*math.Pi*f*tau)
			}
		}
		// AGC re-quantization: a real positive gain step shared by the
		// chain's subcarriers — invisible to the phase difference, harmful
		// to amplitude-based methods.
		if s.nic.AGCStepProb > 0 && s.rng.Float64() < s.nic.AGCStepProb {
			stepDB := s.nic.AGCStepDB
			if s.rng.Intn(2) == 0 {
				stepDB = -stepDB
			}
			s.agcGain[a] *= math.Pow(10, stepDB/20)
			// Keep the loop within its realistic control range.
			if s.agcGain[a] < 0.5 {
				s.agcGain[a] = 0.5
			} else if s.agcGain[a] > 2 {
				s.agcGain[a] = 2
			}
		}
		burst := 1.0
		if s.nic.BurstProb > 0 && s.rng.Float64() < s.nic.BurstProb {
			burst = 0.4 + s.rng.Float64()*2.2
		}

		// Apply the measured-phase error model (eq. (3)) plus additive
		// receiver thermal noise.
		beta := s.nic.Beta[a]
		for i := range row {
			errPhase := slope*float64(s.subIdx[i]) + offset + beta +
				s.nic.PhaseNoiseSigma*s.rng.NormFloat64()
			ampScale := (1 + s.nic.AmplitudeNoiseSigma*s.rng.NormFloat64()) * s.agcGain[a] * burst
			row[i] *= cmplx.Rect(ampScale, errPhase)
			row[i] += complex(s.nic.ThermalNoiseSigma*s.rng.NormFloat64(),
				s.nic.ThermalNoiseSigma*s.rng.NormFloat64())
		}
	}
	s.packetIndex++
	return pkt
}

// Generate runs the simulator for durationS seconds and returns the trace.
func (s *Simulator) Generate(durationS float64) (*trace.Trace, error) {
	if durationS <= 0 {
		return nil, fmt.Errorf("csisim: duration must be positive, got %v", durationS)
	}
	n := int(durationS * s.cfg.SampleRate)
	if n < 1 {
		n = 1
	}
	tr := &trace.Trace{
		SampleRate:     s.cfg.SampleRate,
		NumAntennas:    s.cfg.NumAntennas,
		NumSubcarriers: len(s.subFreq),
		CarrierHz:      s.cfg.Env.CarrierHz,
		Packets:        make([]trace.Packet, 0, n),
	}
	for i := 0; i < n; i++ {
		tr.Packets = append(tr.Packets, s.NextPacket())
	}
	return tr, nil
}
