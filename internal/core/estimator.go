package core

import (
	"fmt"
	"sort"
	"sync"

	"phasebeat/internal/baseline"
	"phasebeat/internal/trace"
)

// EstimatorInput bundles everything the estimation stage can hand a
// backend: the wavelet bands of the selected subcarrier, the full
// calibrated matrix with its eligibility mask, and — on batch runs — the
// raw trace for amplitude-domain methods.
type EstimatorInput struct {
	// Trace is the raw capture; nil on Monitor strides, whose engine keeps
	// only the quantities derived from CSI at ingest.
	Trace *trace.Trace
	// Breathing and Heart are the DWT band reconstructions of the selected
	// subcarrier, sampled at Rate.
	Breathing, Heart []float64
	// Calibrated is the full calibrated matrix [subcarrier][sample] at
	// Rate; Eligible is its amplitude-gate mask (nil = ungated).
	Calibrated [][]float64
	Eligible   []bool
	// Rate is the estimation sample rate in Hz.
	Rate float64
	// Persons is the monitored person count.
	Persons int
	// Config is the processor configuration.
	Config *Config
}

// BreathingResult is a breathing backend's output: exactly one of Single
// or Multi is set, mirroring Result.Breathing / Result.MultiPerson.
type BreathingResult struct {
	// Single is the one-person estimate (nil for multi-person backends).
	Single *BreathingEstimate
	// Multi holds per-person rates from subspace backends.
	Multi *MultiPersonEstimate
	// BreathingHz is the dominant breathing frequency handed to the heart
	// stage for harmonic rejection; 0 when unknown.
	BreathingHz float64
}

// BreathingEstimator is a pluggable breathing-rate backend behind the
// estimation stage. Select one with Config.Estimator; register new ones
// with RegisterBreathingEstimator.
type BreathingEstimator interface {
	// Name is the registry key ("peaks", "root-music", ...).
	Name() string
	// EstimateBreathing produces the breathing estimate for one window.
	EstimateBreathing(in *EstimatorInput) (*BreathingResult, error)
}

// HeartEstimator is the pluggable heart-rate backend. Select one with
// Config.HeartEstimator; register new ones with RegisterHeartEstimator.
type HeartEstimator interface {
	// Name is the registry key ("fft").
	Name() string
	// EstimateHeart produces the heart estimate; breathingHz (0 = unknown)
	// enables breathing-harmonic rejection.
	EstimateHeart(in *EstimatorInput, breathingHz float64) (*HeartEstimate, error)
}

// RawTraceEstimator is optionally implemented by backends that need the
// raw trace (EstimatorInput.Trace). Such backends are batch-only: the
// Monitor refuses them, because its stride engine does not retain raw CSI.
type RawTraceEstimator interface {
	NeedsRawTrace() bool
}

// needsRawTrace reports whether a backend declares a raw-trace dependency.
func needsRawTrace(e any) bool {
	r, ok := e.(RawTraceEstimator)
	return ok && r.NeedsRawTrace()
}

var (
	estimatorMu       sync.RWMutex
	breathingBackends = map[string]BreathingEstimator{}
	heartBackends     = map[string]HeartEstimator{}
)

func init() {
	for _, e := range []BreathingEstimator{
		peaksEstimator{}, rootMusicEstimator{}, espritEstimator{}, amplitudeEstimator{},
	} {
		if err := RegisterBreathingEstimator(e); err != nil {
			panic(err)
		}
	}
	if err := RegisterHeartEstimator(fftHeartEstimator{}); err != nil {
		panic(err)
	}
}

// RegisterBreathingEstimator adds a backend to the registry. It fails on
// an empty or duplicate name.
func RegisterBreathingEstimator(e BreathingEstimator) error {
	estimatorMu.Lock()
	defer estimatorMu.Unlock()
	name := e.Name()
	if name == "" {
		return fmt.Errorf("core: breathing estimator with empty name")
	}
	if _, dup := breathingBackends[name]; dup {
		return fmt.Errorf("core: breathing estimator %q already registered", name)
	}
	breathingBackends[name] = e
	return nil
}

// RegisterHeartEstimator adds a heart backend to the registry.
func RegisterHeartEstimator(e HeartEstimator) error {
	estimatorMu.Lock()
	defer estimatorMu.Unlock()
	name := e.Name()
	if name == "" {
		return fmt.Errorf("core: heart estimator with empty name")
	}
	if _, dup := heartBackends[name]; dup {
		return fmt.Errorf("core: heart estimator %q already registered", name)
	}
	heartBackends[name] = e
	return nil
}

// BreathingEstimatorNames lists the registered breathing backends, sorted.
func BreathingEstimatorNames() []string {
	estimatorMu.RLock()
	defer estimatorMu.RUnlock()
	out := make([]string, 0, len(breathingBackends))
	for name := range breathingBackends {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// HeartEstimatorNames lists the registered heart backends, sorted.
func HeartEstimatorNames() []string {
	estimatorMu.RLock()
	defer estimatorMu.RUnlock()
	out := make([]string, 0, len(heartBackends))
	for name := range heartBackends {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// LookupBreathingEstimator resolves a registry name.
func LookupBreathingEstimator(name string) (BreathingEstimator, error) {
	estimatorMu.RLock()
	defer estimatorMu.RUnlock()
	e, ok := breathingBackends[name]
	if !ok {
		return nil, fmt.Errorf("core: unknown breathing estimator %q (have %v)", name, BreathingEstimatorNames())
	}
	return e, nil
}

// LookupHeartEstimator resolves a heart backend; "" selects the default.
func LookupHeartEstimator(name string) (HeartEstimator, error) {
	if name == "" {
		name = "fft" // the default backend
	}
	estimatorMu.RLock()
	defer estimatorMu.RUnlock()
	e, ok := heartBackends[name]
	if !ok {
		return nil, fmt.Errorf("core: unknown heart estimator %q (have %v)", name, HeartEstimatorNames())
	}
	return e, nil
}

// runEstimate is the estimation stage. With Config.Estimator empty it
// keeps the historical person-count dispatch (peaks for one person,
// root-MUSIC above) with outputs byte-identical to the pre-stage-graph
// pipeline; otherwise the named backend runs. Heart estimation is
// best-effort either way: breathing results remain valid even when the
// heart band is too weak (omnidirectional antenna).
func runEstimate(st *pipelineState) error {
	p := st.proc
	cfg := &p.cfg
	res := st.res
	in := &EstimatorInput{
		Trace:      st.tr,
		Breathing:  res.Bands.Breathing,
		Heart:      res.Bands.Heart,
		Calibrated: res.Calibrated,
		Eligible:   res.Selection.Eligible,
		Rate:       res.EstimationRate,
		Persons:    p.nPersons,
		Config:     cfg,
	}
	if st.wantEvidence() {
		// Deferred so every exit — success, non-finite guard, best-effort
		// heart bailout — leaves spectral evidence on the stage record.
		defer func() { st.evidence = newEstimateEvidence(in, res) }()
	}

	breathingHz := 0.0
	if cfg.Estimator == "" {
		// Legacy dispatch: single person -> sliding-window peaks, several
		// -> root-MUSIC over the SNR-gated subcarrier snapshots. The call
		// sequence matches the monolithic pipeline exactly.
		if p.nPersons == 1 {
			breathing, err := EstimateBreathingPeaks(res.Bands.Breathing, in.Rate, cfg)
			if err != nil {
				return fmt.Errorf("breathing estimation: %w", err)
			}
			res.Breathing = breathing
			breathingHz = breathing.RateBPM / 60
		} else {
			musicInput := filterEligible(res.Calibrated, res.Selection.Eligible)
			multi, err := EstimateBreathingMultiRootMUSIC(musicInput, in.Rate, p.nPersons, cfg)
			if err != nil {
				return fmt.Errorf("multi-person estimation: %w", err)
			}
			res.MultiPerson = multi
		}
	} else {
		be, err := LookupBreathingEstimator(cfg.Estimator)
		if err != nil {
			return err
		}
		out, err := be.EstimateBreathing(in)
		if err != nil {
			return fmt.Errorf("estimator %s: %w", be.Name(), err)
		}
		res.Breathing = out.Single
		res.MultiPerson = out.Multi
		breathingHz = out.BreathingHz
		// A subspace backend monitoring one person yields a single rate;
		// surface it as Result.Breathing too so single-person consumers
		// (CLI summary, eval figures) read any backend uniformly.
		if res.Breathing == nil && out.Multi != nil && p.nPersons == 1 && len(out.Multi.RatesBPM) == 1 {
			res.Breathing = &BreathingEstimate{RateBPM: out.Multi.RatesBPM[0], Method: out.Multi.Method}
		}
		st.note = "estimator " + be.Name()
	}
	st.breathingHz = breathingHz

	// Non-finite guard: corrupt input (Inf amplitudes survive phase
	// extraction finite, NaNs can enter through custom backends) must not
	// become a "successful" NaN estimate. Breathing failing the guard is
	// an error; a non-finite heart estimate is dropped like any other
	// heart failure (best-effort).
	if res.Breathing != nil && !isFinite(res.Breathing.RateBPM) {
		return fmt.Errorf("%w: breathing estimate %v bpm", ErrNonFinite, res.Breathing.RateBPM)
	}
	if res.MultiPerson != nil {
		for _, r := range res.MultiPerson.RatesBPM {
			if !isFinite(r) {
				return fmt.Errorf("%w: multi-person estimate %v bpm", ErrNonFinite, r)
			}
		}
	}

	he, err := LookupHeartEstimator(cfg.HeartEstimator)
	if err != nil {
		return err
	}
	heart, err := he.EstimateHeart(in, breathingHz)
	if err != nil || (heart != nil && !isFinite(heart.RateBPM)) {
		// Best-effort: a weak heart band must not invalidate breathing.
		return nil
	}
	res.Heart = heart
	return nil
}

// isFinite reports whether v is neither NaN nor ±Inf.
func isFinite(v float64) bool { return v == v && v-v == 0 }

// peaksEstimator is the paper's single-person method: sliding-window peak
// detection over the DWT breathing band with FFT/autocorrelation guards.
type peaksEstimator struct{}

func (peaksEstimator) Name() string { return "peaks" }

func (peaksEstimator) EstimateBreathing(in *EstimatorInput) (*BreathingResult, error) {
	est, err := EstimateBreathingPeaks(in.Breathing, in.Rate, in.Config)
	if err != nil {
		return nil, err
	}
	return &BreathingResult{Single: est, BreathingHz: est.RateBPM / 60}, nil
}

// rootMusicEstimator is the paper's multi-person method: root-MUSIC over
// the temporal correlation of the SNR-gated subcarrier snapshots.
type rootMusicEstimator struct{}

func (rootMusicEstimator) Name() string { return "root-music" }

func (rootMusicEstimator) EstimateBreathing(in *EstimatorInput) (*BreathingResult, error) {
	multi, err := EstimateBreathingMultiRootMUSIC(filterEligible(in.Calibrated, in.Eligible), in.Rate, in.Persons, in.Config)
	if err != nil {
		return nil, err
	}
	return &BreathingResult{Multi: multi, BreathingHz: soloHz(multi, in.Persons)}, nil
}

// espritEstimator runs least-squares ESPRIT over the same correlation
// front end as root-MUSIC: no spectral search, no polynomial rooting.
type espritEstimator struct{}

func (espritEstimator) Name() string { return "esprit" }

func (espritEstimator) EstimateBreathing(in *EstimatorInput) (*BreathingResult, error) {
	multi, err := EstimateBreathingMultiESPRIT(filterEligible(in.Calibrated, in.Eligible), in.Rate, in.Persons, in.Config)
	if err != nil {
		return nil, err
	}
	return &BreathingResult{Multi: multi, BreathingHz: soloHz(multi, in.Persons)}, nil
}

// soloHz returns the single estimated rate in Hz when exactly one person
// is monitored, so the heart stage can reject its harmonics; 0 otherwise.
func soloHz(multi *MultiPersonEstimate, persons int) float64 {
	if persons == 1 && len(multi.RatesBPM) == 1 {
		return multi.RatesBPM[0] / 60
	}
	return 0
}

// amplitudeEstimator is the CSI-amplitude method of Liu et al. [13] — the
// paper's Fig. 11 comparison system — run from the raw trace.
type amplitudeEstimator struct{}

func (amplitudeEstimator) Name() string { return "amplitude" }

func (amplitudeEstimator) NeedsRawTrace() bool { return true }

func (amplitudeEstimator) EstimateBreathing(in *EstimatorInput) (*BreathingResult, error) {
	if in.Trace == nil {
		return nil, fmt.Errorf("core: amplitude estimator is batch-only (it reads the raw trace); run it through Processor.Process")
	}
	bcfg := baseline.ConfigForRate(in.Trace.SampleRate)
	bcfg.Antenna = in.Config.AntennaA
	bcfg.BreathBandLow = in.Config.BreathBandLow
	bcfg.BreathBandHigh = in.Config.BreathBandHigh
	est, err := baseline.EstimateBreathing(in.Trace, bcfg)
	if err != nil {
		return nil, err
	}
	single := &BreathingEstimate{RateBPM: est.BreathingBPM, Method: "amplitude"}
	return &BreathingResult{Single: single, BreathingHz: est.BreathingBPM / 60}, nil
}

// fftHeartEstimator is the default heart backend: heart-band FFT peak with
// breathing-harmonic rejection and Vital-Radio 3-bin phase refinement.
type fftHeartEstimator struct{}

func (fftHeartEstimator) Name() string { return "fft" }

func (fftHeartEstimator) EstimateHeart(in *EstimatorInput, breathingHz float64) (*HeartEstimate, error) {
	return EstimateHeartRate(in.Heart, in.Rate, breathingHz, in.Config)
}
