package core

import (
	"fmt"

	"phasebeat/internal/arena"
	"phasebeat/internal/trace"
)

// Result bundles everything one batch run of the pipeline produces,
// including the intermediate products the paper's figures visualize.
type Result struct {
	// Breathing is the single-person breathing estimate (nil if the
	// breathing stage was skipped or failed — see Err).
	Breathing *BreathingEstimate
	// Heart is the heart-rate estimate (nil when not computed).
	Heart *HeartEstimate
	// MultiPerson holds the root-MUSIC rates when the processor was asked
	// for more than one person.
	MultiPerson *MultiPersonEstimate

	// Environment is the eq. (8) detection over the smoothed data.
	Environment *EnvironmentDetection
	// StationarySegment is the segment estimates were computed on.
	StationarySegment Segment
	// Selection is the subcarrier-selection outcome (Fig. 7), including
	// the amplitude-gate fallback diagnostics.
	Selection *SubcarrierSelection
	// Calibrated is the calibrated matrix [subcarrier][sample] at the
	// downsampled rate (Fig. 5).
	Calibrated [][]float64
	// Bands holds the wavelet breathing/heart signals (Fig. 6).
	Bands *DWTBands
	// EstimationRate is the sample rate of Calibrated and Bands in Hz.
	EstimationRate float64
}

// Processor runs the PhaseBeat pipeline over complete traces as an
// explicit stage graph (see batchStages): extraction → smoothing →
// amplitude gate → environment detection → stationary-segment selection →
// downsampling → subcarrier selection → DWT → estimation.
type Processor struct {
	cfg      Config
	nPersons int

	// arena pools the pipeline's internal slabs (phase-difference and
	// smoothed matrices) across Process calls; nil disables pooling.
	// Matrices whose ownership escapes into the Result (Calibrated) are
	// never arena-backed.
	arena *arena.Arena

	// guard recovers panics from the observer and sink; nil (batch)
	// lets them propagate. The Monitor installs one.
	guard *observerGuard
}

// Option customizes a Processor.
type Option func(*Processor)

// WithConfig replaces the entire configuration.
func WithConfig(cfg Config) Option {
	return func(p *Processor) { p.cfg = cfg }
}

// WithPersons sets the number of monitored persons (default 1); for more
// than one the processor runs the root-MUSIC multi-person estimator.
func WithPersons(n int) Option {
	return func(p *Processor) { p.nPersons = n }
}

// WithObserver attaches a live per-stage instrumentation hook (equivalent
// to setting Config.Observer).
func WithObserver(obs StageObserver) Option {
	return func(p *Processor) { p.cfg.Observer = obs }
}

// WithArena pools the pipeline's internal columnar slabs on the given
// allocator, so repeated Process calls (and the sessions of a future fleet
// daemon sharing one arena) recycle window-sized matrices instead of
// re-allocating them. A nil arena (the default) disables pooling.
func WithArena(a *arena.Arena) Option {
	return func(p *Processor) { p.arena = a }
}

// NewProcessor builds a Processor with the paper's defaults.
func NewProcessor(opts ...Option) (*Processor, error) {
	p := &Processor{cfg: DefaultConfig(), nPersons: 1}
	for _, opt := range opts {
		opt(p)
	}
	if err := p.cfg.Validate(); err != nil {
		return nil, err
	}
	if p.nPersons < 1 {
		return nil, fmt.Errorf("core: person count %d < 1", p.nPersons)
	}
	return p, nil
}

// Config returns a copy of the processor configuration.
func (p *Processor) Config() Config { return p.cfg }

// amplitudeGateFraction is the AmplitudeGate threshold fraction shared by
// the batch pipeline and the streaming monitor (which replicates the gate
// from cached per-packet amplitudes).
const amplitudeGateFraction = 0.3

// filterEligible returns the rows of series whose eligible flag is set. A
// nil mask keeps everything; if the mask would reject every row, the input
// is returned unchanged (an all-ineligible gate must not starve downstream
// stages — the fallback is surfaced via SubcarrierSelection.GateFallback
// and the gate stage's note).
func filterEligible(series [][]float64, eligible []bool) [][]float64 {
	if eligible == nil {
		return series
	}
	kept := make([][]float64, 0, len(series))
	for i, s := range series {
		if i < len(eligible) && eligible[i] {
			kept = append(kept, s)
		}
	}
	if len(kept) == 0 {
		return series
	}
	return kept
}

// Process runs the full stage graph on a trace.
//
// Contract: the returned *Result is never nil. On success it holds the
// complete output; on failure it holds everything the stages that ran
// produced (for example the EnvironmentDetection when no stationary
// segment exists), and the error is a *StageError naming the failed stage
// while still matching the sentinel errors (ErrNoData, ErrNotStationary)
// through errors.Is. A configured Sink receives the run's StrideRecord
// before Process returns, success or failure.
func (p *Processor) Process(tr *trace.Trace) (*Result, error) {
	st := &pipelineState{proc: p, tr: tr, res: &Result{}}
	if tr != nil {
		st.sampleRate = tr.SampleRate
	}
	if p.cfg.Sink != nil {
		st.rec = newStrideRecord()
	}
	err := p.runStages(st, batchStages)
	// The phase-difference and smoothed slabs are internal to the run —
	// nothing in the Result aliases them — so they go back to the arena
	// for the next Process call (no-op without an arena).
	st.phaseDiffM.Release(p.arena)
	st.smoothedM.Release(p.arena)
	if st.rec != nil {
		st.rec.Result, st.rec.Err = st.res, err
		p.emit(st.rec)
	}
	return st.res, err
}

// finishSmoothed runs everything downstream of smoothing and gating —
// environment detection, stationary-segment selection, downsampling,
// subcarrier selection, DWT, and rate estimation — so the batch Processor
// and the incremental Monitor share one stage list from this point on.
// It follows the same partial-result contract as Process, and appends
// its stages to rec (nil when the stride is not recorded).
func (p *Processor) finishSmoothed(smoothed [][]float64, eligible []bool, sampleRate float64, rec *StrideRecord) (*Result, error) {
	st := &pipelineState{
		proc:       p,
		smoothed:   smoothed,
		eligible:   eligible,
		sampleRate: sampleRate,
		rec:        rec,
		res:        &Result{},
	}
	st.gateFallback, st.rejected = gateStats(eligible)
	err := p.runStages(st, streamStages)
	return st.res, err
}
