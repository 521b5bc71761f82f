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
// explicit stage graph (see StageNames): extraction → smoothing →
// amplitude gate (the stride engine's front end) → environment detection
// → stationary-segment selection → downsampling → subcarrier selection →
// DWT → estimation (the shared stage list).
type Processor struct {
	cfg      Config
	nPersons int

	// arena pools the engine's slabs (the phase-difference ring and the
	// smoothed matrix) across Process calls; nil disables pooling.
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

// amplitudeGateFraction is the stride engine's amplitude-gate threshold
// fraction (see AmplitudeGate).
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

// Process runs the full stage graph on a trace: every packet is written
// into a stride engine whose window and stride are the whole trace, and
// the engine's one stride yields the Result — the same front end a
// Monitor slides over a stream. Timestamps are not read.
//
// Contract: the returned *Result is never nil. On success it holds the
// complete output; on failure it holds everything the stages that ran
// produced (for example the EnvironmentDetection when no stationary
// segment exists), and the error is a *StageError naming the failed stage
// while still matching the sentinel errors (ErrNoData, ErrNotStationary,
// ErrNonFinite) through errors.Is. A configured Sink receives the run's
// StrideRecord before Process returns, success or failure.
func (p *Processor) Process(tr *trace.Trace) (*Result, error) {
	var rec *StrideRecord
	if p.cfg.Sink != nil {
		rec = newStrideRecord()
	}
	t0 := p.beginStage(rec, StageExtract)
	e, err := p.ingest(tr)
	if p.observed(rec) {
		s := StageStats{Stage: StageExtract, Err: err}
		if e != nil {
			s.Samples, s.Subcarriers = e.window, e.nSub
		}
		p.endStage(rec, t0, s)
	}
	res := &Result{}
	if err != nil {
		err = &StageError{Stage: StageExtract, Err: err}
	} else {
		e.rec = rec
		res, err = e.process()
		// The engine's slabs are internal to the run — nothing in the
		// Result aliases them — so they go back to the arena for the
		// next call (no-op without an arena).
		e.release()
	}
	if rec != nil {
		rec.Result, rec.Err = res, err
		p.emit(rec)
	}
	return res, err
}

// ingest writes every packet of tr into a fresh engine on p.arena with
// window = stride = tr.Len(), reading each packet once. A packet whose
// shape differs from the trace's is an error, and a NaN or Inf cell on
// any antenna is ErrNonFinite.
func (p *Processor) ingest(tr *trace.Trace) (*strideEngine, error) {
	if err := checkAntennaPair(tr, AntennaA, AntennaB); err != nil {
		return nil, err
	}
	if tr.NumSubcarriers < 1 {
		return nil, fmt.Errorf("%w: trace has no subcarriers", ErrNoData)
	}
	n := tr.Len()
	e := newStrideEngine(p, tr.NumAntennas, tr.NumSubcarriers, n, n, tr.SampleRate, p.arena)
	for k, pkt := range tr.Packets {
		switch e.screen(pkt) {
		case pushMalformed:
			e.release()
			return nil, fmt.Errorf("core: packet %d does not have the trace's %d antennas × %d subcarriers",
				k, tr.NumAntennas, tr.NumSubcarriers)
		case pushNonFinite:
			e.release()
			return nil, fmt.Errorf("%w: NaN or Inf CSI in packet %d", ErrNonFinite, k)
		}
		e.write(pkt)
	}
	return e, nil
}
