package core

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"phasebeat/internal/trace"
)

// Stage names, in pipeline order. The first three are the stride
// engine's front end, which batch and stream share: the engine records
// smooth and gate itself, and Processor.Process records extract (the
// ingest of a whole trace; a stream's ingest is per packet, outside any
// stride). The remaining six run through the shared stage list.
const (
	StageExtract    = "extract"    // phase-difference extraction + unwrap
	StageSmooth     = "smooth"     // Hampel detrend + outlier suppression
	StageGate       = "gate"       // amplitude SNR gate over subcarriers
	StageEnvDetect  = "envdetect"  // eq. (8) environment detection
	StageSegment    = "segment"    // stationary-segment selection
	StageDownsample = "downsample" // raw rate -> estimation rate
	StageSelect     = "select"     // MAD-based subcarrier selection
	StageDWT        = "dwt"        // wavelet band extraction
	StageEstimate   = "estimate"   // breathing + heart estimation
)

// Stage is one named step of the pipeline graph: a run function over the
// shared pipelineState. Stages communicate exclusively through the state,
// so a stage list fully determines the data flow.
type Stage struct {
	// Name identifies the stage in StageError and observer callbacks.
	Name string
	// Run advances the state; a non-nil error aborts the remaining stages.
	Run func(*pipelineState) error
}

// stages is the list every run executes after the engine's front end.
var stages = []Stage{
	{StageEnvDetect, runEnvDetect},
	{StageSegment, runSegment},
	{StageDownsample, runDownsample},
	{StageSelect, runSelect},
	{StageDWT, runDWT},
	{StageEstimate, runEstimate},
}

// frontEndStages counts the engine's front-end stages ahead of stages.
const frontEndStages = 3

// StageNames returns the pipeline's stage names in execution order, as a
// batch run records them.
func StageNames() []string {
	out := []string{StageExtract, StageSmooth, StageGate}
	for _, s := range stages {
		out = append(out, s.Name)
	}
	return out
}

// StageError tags a pipeline failure with the stage that produced it. It
// wraps the underlying error, so errors.Is/As against the sentinels
// (ErrNoData, ErrNotStationary) keep working through it.
type StageError struct {
	// Stage is the failing stage's name (one of the Stage* constants).
	Stage string
	// Err is the underlying error.
	Err error
}

// Error implements error.
func (e *StageError) Error() string { return fmt.Sprintf("stage %s: %v", e.Stage, e.Err) }

// Unwrap exposes the underlying error to errors.Is/As.
func (e *StageError) Unwrap() error { return e.Err }

// StageStats is the per-stage instrumentation record delivered to a
// StageObserver after each stage completes (successfully or not).
type StageStats struct {
	// Stage is the stage name.
	Stage string
	// Duration is the stage's wall-clock run time.
	Duration time.Duration
	// Samples is the per-subcarrier sample count of the data the pipeline
	// holds after the stage (raw-rate before downsampling, estimation-rate
	// after).
	Samples int
	// Subcarriers is the subcarrier count of that data.
	Subcarriers int
	// Note carries stage-specific diagnostics (gate fallback, estimator
	// backend, incremental reuse), empty when there is nothing to report.
	Note string
	// Evidence carries the stage's typed evidence record (one of the
	// *Evidence structs in evidence.go). It is nil unless a StrideSink is
	// configured — a run without one never pays for its computation.
	Evidence any
	// Err is the stage's error, nil on success.
	Err error
}

// StageObserver receives per-stage instrumentation live, from every
// pipeline run, as each stage starts and ends; the StageStats it receives
// is the same value the run's StrideRecord keeps. Implementations must be
// safe for concurrent use when the processor is shared across goroutines
// (the eval trial runner executes trials in parallel). Callbacks run on
// the pipeline's goroutine: keep them cheap. Inside a Monitor, panics are
// recovered and counted in Health.ObserverPanics.
type StageObserver interface {
	// OnStageStart fires immediately before the stage runs.
	OnStageStart(stage string)
	// OnStageEnd fires after the stage returns, success or failure.
	OnStageEnd(stats StageStats)
}

// pipelineState is the shared state a stage list threads through: the
// immutable inputs, the data flowing between stages, and the Result being
// accumulated. Every stage reads what upstream stages wrote and appends
// its own products, so a partial Result is always available on failure.
type pipelineState struct {
	proc *Processor

	// tr is the raw trace of a batch run, for raw-trace estimator
	// backends; nil on a stream.
	tr *trace.Trace
	// sampleRate is the capture rate in Hz.
	sampleRate float64

	// smoothed is the calibrated full-rate matrix, the engine's smoothed
	// window.
	smoothed [][]float64
	// eligible is the amplitude-gate mask (nil = no gate).
	eligible []bool
	// gateFallback is true when the gate rejected every subcarrier and the
	// pipeline proceeds ungated; rejected counts the gated-out rows.
	gateFallback bool
	rejected     int
	// segment is the smoothed matrix restricted to the stationary segment.
	segment [][]float64
	// breathingHz feeds the heart stage's harmonic rejection.
	breathingHz float64
	// rec is the run's observation record, nil when nothing records it.
	rec *StrideRecord
	// note is a per-stage diagnostic and evidence the per-stage evidence
	// record, both cleared after each stage.
	note     string
	evidence any

	// res accumulates the pipeline output; never nil.
	res *Result
}

// wantEvidence reports whether the run's stages compute evidence: only
// for a recorded run with a Sink configured.
func (st *pipelineState) wantEvidence() bool {
	return st.rec != nil && st.proc.cfg.Sink != nil
}

// dims reports the sample/subcarrier shape of the most processed matrix
// the state holds, for observer stats.
func (st *pipelineState) dims() (samples, subcarriers int) {
	switch {
	case len(st.res.Calibrated) > 0:
		return len(st.res.Calibrated[0]), len(st.res.Calibrated)
	case len(st.smoothed) > 0:
		return len(st.smoothed[0]), len(st.smoothed)
	}
	return 0, 0
}

// runStages executes the stage list over the state, recording each stage
// into the run's record and for the live observer, and tagging failures
// with the stage name. The accumulated partial Result stays valid whether
// or not an error occurs.
func (p *Processor) runStages(st *pipelineState, stages []Stage) error {
	for _, stage := range stages {
		start := p.beginStage(st.rec, stage.Name)
		err := stage.Run(st)
		if p.observed(st.rec) {
			samples, subs := st.dims()
			p.endStage(st.rec, start, StageStats{
				Stage:       stage.Name,
				Samples:     samples,
				Subcarriers: subs,
				Note:        st.note,
				Evidence:    st.evidence,
				Err:         err,
			})
		}
		st.note = ""
		st.evidence = nil
		if err != nil {
			return &StageError{Stage: stage.Name, Err: err}
		}
	}
	return nil
}

// gateStats summarizes an eligibility mask: whether the gate rejected
// everything (the ungated-fallback condition shared by filterEligible and
// SelectSubcarrier) and how many subcarriers it rejected.
func gateStats(eligible []bool) (fallback bool, rejected int) {
	if eligible == nil {
		return false, 0
	}
	any := false
	for _, ok := range eligible {
		if ok {
			any = true
		} else {
			rejected++
		}
	}
	return !any, rejected
}

func runEnvDetect(st *pipelineState) error {
	envInput := filterEligible(st.smoothed, st.eligible)
	env, err := DetectEnvironment(envInput, st.proc.cfg.EnvWindow, EnvMinV, EnvMaxV)
	if err != nil {
		return err
	}
	env.Debounce()
	st.res.Environment = env
	if st.gateFallback {
		st.note = fmt.Sprintf("amplitude gate rejected all %d subcarriers; proceeding ungated", st.rejected)
	}
	return nil
}

func runSegment(st *pipelineState) error {
	env := st.res.Environment
	seg, ok := env.LongestStationary()
	if !ok {
		return fmt.Errorf("%w: states %v", ErrNotStationary, env.States)
	}
	if seg.EndSample > len(st.smoothed[0]) {
		seg.EndSample = len(st.smoothed[0])
	}
	if need := minStationaryWindows * st.proc.cfg.EnvWindow; seg.EndSample-seg.StartSample < need {
		return fmt.Errorf("%w: longest stationary run %d samples, need %d",
			ErrNotStationary, seg.EndSample-seg.StartSample, need)
	}
	st.res.StationarySegment = seg
	segment := make([][]float64, len(st.smoothed))
	for i, series := range st.smoothed {
		segment[i] = series[seg.StartSample:seg.EndSample]
	}
	st.segment = segment
	return nil
}

func runDownsample(st *pipelineState) error {
	cfg := &st.proc.cfg
	calibrated, err := Downsample(st.segment, cfg)
	if err != nil {
		return err
	}
	st.res.Calibrated = calibrated
	st.res.EstimationRate = st.sampleRate / float64(cfg.DownsampleFactor)
	return nil
}

func runSelect(st *pipelineState) error {
	sel, err := SelectSubcarrier(st.res.Calibrated, TopK, st.eligible)
	if err != nil {
		return err
	}
	st.res.Selection = sel
	if sel.GateFallback {
		st.note = fmt.Sprintf("gate fallback: all %d subcarriers rejected, ranking ungated", sel.Rejected)
	}
	if st.wantEvidence() {
		st.evidence = &SelectionEvidence{
			MAD:          append([]float64(nil), sel.MAD...),
			TopK:         append([]int(nil), sel.TopK...),
			Selected:     sel.Selected,
			GateFallback: sel.GateFallback,
			Rejected:     sel.Rejected,
		}
	}
	return nil
}

func runDWT(st *pipelineState) error {
	sel := st.res.Selection
	bands, err := DenoiseDWT(st.res.Calibrated[sel.Selected], st.res.EstimationRate)
	if err != nil {
		return err
	}
	st.res.Bands = bands
	if st.wantEvidence() {
		st.evidence = &DWTEvidence{
			BreathingEnergy: meanSquare(bands.Breathing),
			HeartEnergy:     meanSquare(bands.Heart),
		}
	}
	return nil
}

// TimingObserver is a ready-made StageObserver that aggregates per-stage
// wall-clock durations across runs. It is safe for concurrent use, so one
// instance can instrument parallel trials or a streaming Monitor.
type TimingObserver struct {
	mu    sync.Mutex
	order []string
	byKey map[string]*stageTotals
}

type stageTotals struct {
	total       time.Duration
	count       int
	samples     int
	subcarriers int
}

// NewTimingObserver returns an empty collector.
func NewTimingObserver() *TimingObserver {
	return &TimingObserver{byKey: make(map[string]*stageTotals)}
}

// OnStageStart implements StageObserver.
func (o *TimingObserver) OnStageStart(string) {}

// OnStageEnd implements StageObserver.
func (o *TimingObserver) OnStageEnd(s StageStats) {
	o.mu.Lock()
	defer o.mu.Unlock()
	t, ok := o.byKey[s.Stage]
	if !ok {
		t = &stageTotals{}
		o.byKey[s.Stage] = t
		o.order = append(o.order, s.Stage)
	}
	t.total += s.Duration
	t.count++
	t.samples = s.Samples
	t.subcarriers = s.Subcarriers
}

// Table renders the aggregated timings as an aligned plain-text table in
// first-seen stage order: runs, total and mean duration, and the last
// observed data shape per stage.
func (o *TimingObserver) Table() string {
	o.mu.Lock()
	defer o.mu.Unlock()
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %6s %12s %12s %16s\n", "stage", "runs", "total", "mean", "last shape")
	var grand time.Duration
	for _, name := range o.order {
		t := o.byKey[name]
		mean := time.Duration(0)
		if t.count > 0 {
			mean = t.total / time.Duration(t.count)
		}
		fmt.Fprintf(&b, "%-12s %6d %12s %12s %10d x %-3d\n",
			name, t.count, t.total.Round(time.Microsecond), mean.Round(time.Microsecond),
			t.samples, t.subcarriers)
		grand += t.total
	}
	fmt.Fprintf(&b, "%-12s %6s %12s\n", "all stages", "", grand.Round(time.Microsecond))
	return b.String()
}
