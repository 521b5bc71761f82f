package core

import (
	"fmt"
	"sort"
)

// EstimatorInput bundles everything the estimation stage can hand a
// breathing backend: the wavelet breathing band of the selected
// subcarrier and the full calibrated matrix with its eligibility mask.
// Batch runs and Monitor strides build it from the same stride engine, so
// every backend runs in both.
type EstimatorInput struct {
	// Breathing is the DWT breathing-band reconstruction of the selected
	// subcarrier, sampled at Rate.
	Breathing []float64
	// Calibrated is the full calibrated matrix [subcarrier][sample] at
	// Rate; Eligible is its amplitude-gate mask (nil = ungated).
	Calibrated [][]float64
	Eligible   []bool
	// Rate is the estimation sample rate in Hz.
	Rate float64
	// Persons is the monitored person count.
	Persons int
}

// BreathingResult is a breathing backend's output: exactly one of Single
// or Multi is set, mirroring Result.Breathing / Result.MultiPerson.
type BreathingResult struct {
	// Single is the one-person estimate (nil for multi-person backends).
	Single *BreathingEstimate
	// Multi holds per-person rates from subspace backends.
	Multi *MultiPersonEstimate
	// BreathingHz is the dominant breathing frequency handed to the heart
	// estimate for harmonic rejection; 0 when unknown.
	BreathingHz float64
}

// BreathingEstimator is a breathing-rate backend behind the estimation
// stage, selected by name with Config.Estimator.
type BreathingEstimator interface {
	// EstimateBreathing produces the breathing estimate for one window.
	EstimateBreathing(in *EstimatorInput) (*BreathingResult, error)
}

// breathingBackends is the fixed set of breathing backends, keyed by the
// names Config.Estimator accepts.
var breathingBackends = map[string]BreathingEstimator{
	"peaks":      peaksEstimator{},
	"root-music": rootMusicEstimator{},
	"esprit":     espritEstimator{},
}

// BreathingEstimatorNames lists the breathing backends, sorted.
func BreathingEstimatorNames() []string {
	out := make([]string, 0, len(breathingBackends))
	for name := range breathingBackends {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// LookupBreathingEstimator resolves a backend name.
func LookupBreathingEstimator(name string) (BreathingEstimator, error) {
	e, ok := breathingBackends[name]
	if !ok {
		return nil, fmt.Errorf("core: unknown breathing estimator %q (have %v)", name, BreathingEstimatorNames())
	}
	return e, nil
}

// estimatorName resolves Config.Estimator for a person count: an empty
// name selects the paper's dispatch, sliding-window peaks for one person
// and root-MUSIC over the SNR-gated subcarrier snapshots for more.
func estimatorName(name string, persons int) string {
	switch {
	case name != "":
		return name
	case persons == 1:
		return "peaks"
	default:
		return "root-music"
	}
}

// runEstimate is the estimation stage: the breathing backend named by
// Config.Estimator (resolved by estimatorName), then the heart-band FFT
// estimate. Heart estimation is best-effort: breathing results remain
// valid even when the heart band is too weak (omnidirectional antenna).
func runEstimate(st *pipelineState) error {
	p := st.proc
	res := st.res
	in := &EstimatorInput{
		Breathing:  res.Bands.Breathing,
		Calibrated: res.Calibrated,
		Eligible:   res.Selection.Eligible,
		Rate:       res.EstimationRate,
		Persons:    p.nPersons,
	}
	if st.wantEvidence() {
		// Deferred so every exit — success, non-finite guard, best-effort
		// heart bailout — leaves spectral evidence on the stage record.
		defer func() { st.evidence = newEstimateEvidence(in, res) }()
	}

	name := estimatorName(p.cfg.Estimator, p.nPersons)
	be, err := LookupBreathingEstimator(name)
	if err != nil {
		return err
	}
	out, err := be.EstimateBreathing(in)
	if err != nil {
		return fmt.Errorf("estimator %s: %w", name, err)
	}
	res.Breathing = out.Single
	res.MultiPerson = out.Multi
	// A subspace backend monitoring one person yields a single rate;
	// surface it as Result.Breathing too so single-person consumers (CLI
	// summary, eval figures) read any backend uniformly.
	if res.Breathing == nil && out.Multi != nil && p.nPersons == 1 && len(out.Multi.RatesBPM) == 1 {
		res.Breathing = &BreathingEstimate{RateBPM: out.Multi.RatesBPM[0], Method: out.Multi.Method}
	}
	st.note = "estimator " + name
	st.breathingHz = out.BreathingHz

	// Non-finite guard: corrupt input (Inf amplitudes survive phase
	// extraction finite) must not become a "successful" NaN estimate.
	// Breathing failing the guard is an error; a non-finite heart estimate
	// is dropped like any other heart failure (best-effort).
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

	heart, err := EstimateHeartRate(res.Bands.Heart, in.Rate, out.BreathingHz)
	if err != nil || !isFinite(heart.RateBPM) {
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

func (peaksEstimator) EstimateBreathing(in *EstimatorInput) (*BreathingResult, error) {
	est, err := EstimateBreathingPeaks(in.Breathing, in.Rate)
	if err != nil {
		return nil, err
	}
	return &BreathingResult{Single: est, BreathingHz: est.RateBPM / 60}, nil
}

// rootMusicEstimator is the paper's multi-person method: root-MUSIC over
// the temporal correlation of the SNR-gated subcarrier snapshots.
type rootMusicEstimator struct{}

func (rootMusicEstimator) EstimateBreathing(in *EstimatorInput) (*BreathingResult, error) {
	multi, err := EstimateBreathingMultiRootMUSIC(filterEligible(in.Calibrated, in.Eligible), in.Rate, in.Persons)
	if err != nil {
		return nil, err
	}
	return &BreathingResult{Multi: multi, BreathingHz: soloHz(multi, in.Persons)}, nil
}

// espritEstimator runs least-squares ESPRIT over the same correlation
// front end as root-MUSIC: no spectral search, no polynomial rooting.
type espritEstimator struct{}

func (espritEstimator) EstimateBreathing(in *EstimatorInput) (*BreathingResult, error) {
	multi, err := EstimateBreathingMultiESPRIT(filterEligible(in.Calibrated, in.Eligible), in.Rate, in.Persons)
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
