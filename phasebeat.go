// Package phasebeat is a from-scratch Go implementation of PhaseBeat
// (Wang, Yang, Mao — IEEE ICDCS 2017): contact-free breathing and heart
// rate monitoring from the CSI phase difference between two receive
// antennas of a commodity WiFi NIC.
//
// The package exposes the full system:
//
//   - batch processing of CSI traces (ProcessTrace) and realtime streaming
//     (NewMonitor / Monitor.Ingest),
//   - the physics-based CSI simulator that substitutes for Intel 5300
//     hardware (Simulate, Scenario), including the paper's NIC phase-error
//     model of eq. (3)-(4),
//   - the trace container with a binary codec (ReadTrace / WriteTrace),
//   - and the amplitude-based comparison method of Liu et al. [13]
//     (EstimateAmplitudeBaseline).
//
// A minimal session:
//
//	tr, truth, err := phasebeat.Simulate(phasebeat.Scenario{
//	    Kind:          phasebeat.ScenarioLaboratory,
//	    TxRxDistanceM: 3,
//	    NumPersons:    1,
//	    Seed:          1,
//	}, 60)
//	// handle err
//	res, err := phasebeat.ProcessTrace(tr)
//	// handle err
//	fmt.Printf("breathing %.1f bpm (truth %.1f)\n",
//	    res.Breathing.RateBPM, truth[0].BreathingBPM)
package phasebeat

import (
	"io"

	"phasebeat/internal/baseline"
	"phasebeat/internal/core"
	"phasebeat/internal/csisim"
	"phasebeat/internal/explain"
	"phasebeat/internal/metrics"
	"phasebeat/internal/store"
	"phasebeat/internal/trace"
)

// Re-exported core types. The aliases form the public facade over the
// internal packages; see each type's documentation there.
type (
	// Config holds the settable parameters of the PhaseBeat pipeline.
	Config = core.Config
	// Result is a batch pipeline output, including the intermediate
	// products the paper's figures visualize.
	Result = core.Result
	// BreathingEstimate is the single-person breathing result.
	BreathingEstimate = core.BreathingEstimate
	// HeartEstimate is the heart-rate result.
	HeartEstimate = core.HeartEstimate
	// MultiPersonEstimate is the root-MUSIC multi-person result.
	MultiPersonEstimate = core.MultiPersonEstimate
	// Monitor is the realtime streaming processor.
	Monitor = core.Monitor
	// MonitorConfig configures a Monitor.
	MonitorConfig = core.MonitorConfig
	// Update is one realtime estimate.
	Update = core.Update
	// Health is the Monitor's ingest-health summary: quarantine counts by
	// cause, gap resets, and backlog shedding. A copy rides on every
	// Update.
	Health = core.Health
	// EnvironmentState classifies a detection window.
	EnvironmentState = core.EnvironmentState
	// ProcessorOption customizes ProcessTrace.
	ProcessorOption = core.Option
	// StageError tags a pipeline failure with the stage that produced it;
	// match the stage with errors.As and the cause with errors.Is.
	StageError = core.StageError
	// StageStats is one stage's record: delivered live to a
	// StageObserver and kept in the run's StrideRecord.
	StageStats = core.StageStats
	// StageObserver receives live start/end callbacks from every
	// pipeline run.
	StageObserver = core.StageObserver
	// StrideRecord is one pipeline run's observation record: the update,
	// its Health delta, and every stage with its evidence.
	StrideRecord = core.StrideRecord
	// StrideSink receives one StrideRecord per pipeline run (Config.Sink).
	StrideSink = core.StrideSink
	// TimingObserver is a concurrency-safe StageObserver that aggregates
	// per-stage durations across runs.
	TimingObserver = core.TimingObserver
	// MetricsRegistry is a named collection of runtime metrics (counters,
	// gauges, latency histograms) with an expvar-style JSON snapshot; it
	// implements http.Handler. A nil registry is the disabled state: all
	// wiring that accepts one degrades to no-ops.
	MetricsRegistry = metrics.Registry
	// MetricsHistogram is a fixed-bucket, lock-free latency histogram.
	MetricsHistogram = metrics.Histogram
	// ExplainConfig configures an ExplainRecorder; ExplainTrace is one
	// pipeline run's per-stage explanation; FlightDump is the bundle the
	// recorder writes when an anomaly trigger fires.
	ExplainConfig   = explain.Config
	ExplainRecorder = explain.Recorder
	ExplainTrace    = explain.Trace
	FlightDump      = explain.FlightDump
	// Stage evidence records carried inside an ExplainTrace.
	CalibrationEvidence = core.CalibrationEvidence
	GateEvidence        = core.GateEvidence
	SelectionEvidence   = core.SelectionEvidence
	DWTEvidence         = core.DWTEvidence
	EstimateEvidence    = core.EstimateEvidence

	// Trace is a CSI capture; Packet is one CSI measurement.
	Trace  = trace.Trace
	Packet = trace.Packet

	// Scenario describes a simulated deployment; ScenarioKind selects its
	// environment template; Person is a monitored subject; VitalTruth the
	// ground-truth rates.
	Scenario     = csisim.Scenario
	ScenarioKind = csisim.ScenarioKind
	Person       = csisim.Person
	VitalTruth   = csisim.VitalTruth
	// Simulator generates CSI packets for a configured scene.
	Simulator = csisim.Simulator
	// PacketSource is any producer of a CSI packet stream (the Simulator,
	// a FaultInjector, a replayer).
	PacketSource = csisim.PacketSource
	// FaultPlan configures the packet-stream fault-injection harness;
	// FaultStats counts what it did; FaultInjector applies a plan to a
	// PacketSource.
	FaultPlan     = csisim.FaultPlan
	FaultStats    = csisim.FaultStats
	FaultInjector = csisim.FaultInjector

	// BaselineConfig and BaselineEstimate belong to the amplitude-based
	// comparison method [13].
	BaselineConfig   = baseline.Config
	BaselineEstimate = baseline.Estimate

	// TraceStore is the tiered session trace store phasebeatd archives
	// into: per-session gzip blocks with downsample tiers, retention, and
	// crash recovery. TraceStoreConfig configures it; StoreMeta is a
	// stored session's stream metadata; StoreSessionInfo, StoreRangeResult
	// and StoreTierBin belong to its query API.
	TraceStore       = store.Store
	TraceStoreConfig = store.Config
	StoreMeta        = store.Meta
	StoreSessionInfo = store.SessionInfo
	StoreRangeResult = store.RangeResult
	StoreTierBin     = store.TierBin
)

// Environment detection states (paper Section III-B1).
const (
	EnvNoPerson   = core.EnvNoPerson
	EnvStationary = core.EnvStationary
	EnvMotion     = core.EnvMotion
)

// Scenario kinds matching the paper's three experimental setups.
const (
	ScenarioLaboratory  = csisim.ScenarioLaboratory
	ScenarioThroughWall = csisim.ScenarioThroughWall
	ScenarioCorridor    = csisim.ScenarioCorridor
)

// Errors exposed for matching with errors.Is.
var (
	// ErrNoData reports an empty or too-short input.
	ErrNoData = core.ErrNoData
	// ErrNotStationary reports that no usable stationary segment exists.
	ErrNotStationary = core.ErrNotStationary
	// ErrNonFinite reports NaN/Inf input data or a non-finite estimate.
	ErrNonFinite = core.ErrNonFinite
)

// DefaultConfig returns the paper's 400 Hz operating point.
func DefaultConfig() Config { return core.DefaultConfig() }

// ConfigForRate adapts the defaults to a different capture rate.
func ConfigForRate(sampleRate float64) Config { return core.ConfigForRate(sampleRate) }

// WithConfig overrides the pipeline configuration for ProcessTrace.
func WithConfig(cfg Config) ProcessorOption { return core.WithConfig(cfg) }

// WithPersons sets the monitored person count for ProcessTrace; above one,
// the root-MUSIC multi-person estimator runs.
func WithPersons(n int) ProcessorOption { return core.WithPersons(n) }

// WithObserver attaches a stage observer to ProcessTrace; it receives
// per-stage durations and data shapes as the pipeline runs.
func WithObserver(obs StageObserver) ProcessorOption { return core.WithObserver(obs) }

// NewTimingObserver returns an empty stage-timing collector; attach it via
// WithObserver or Config.Observer and render it with Table.
func NewTimingObserver() *TimingObserver { return core.NewTimingObserver() }

// NewMetricsRegistry returns an empty metrics registry. Mount it on an
// HTTP mux (it implements http.Handler), hand it to MonitorConfig.Metrics
// for the per-stage, stride and health metrics of a streaming Monitor,
// and export the trace-codec counters with RegisterTraceMetrics.
func NewMetricsRegistry() *MetricsRegistry { return metrics.NewRegistry() }

// RegisterTraceMetrics exports the trace codec's counters (traces and
// packets read/written, decode errors) into r under "trace.".
func RegisterTraceMetrics(r *MetricsRegistry) { trace.RegisterMetrics(r) }

// NewExplainRecorder returns a flight recorder assembling one explain
// trace per pipeline run. It is a StrideSink: set it as Config.Sink —
// MonitorConfig.Pipeline.Sink for a Monitor, or through WithConfig for
// ProcessTrace, which hands it the run's record before returning.
func NewExplainRecorder(cfg ExplainConfig) (*ExplainRecorder, error) {
	return explain.NewRecorder(cfg)
}

// PipelineStages lists the pipeline's stage names in execution order.
func PipelineStages() []string { return core.StageNames() }

// BreathingEstimators lists the breathing estimator backends selectable
// through Config.Estimator.
func BreathingEstimators() []string { return core.BreathingEstimatorNames() }

// ProcessTrace runs the full PhaseBeat pipeline over a complete trace.
func ProcessTrace(tr *Trace, opts ...ProcessorOption) (*Result, error) {
	p, err := core.NewProcessor(opts...)
	if err != nil {
		return nil, err
	}
	return p.Process(tr)
}

// DefaultMonitorConfig returns the realtime defaults (1-minute window,
// estimate every 5 s).
func DefaultMonitorConfig() MonitorConfig { return core.DefaultMonitorConfig() }

// NewMonitor starts a realtime monitor; feed it with Ingest and read
// Updates.
func NewMonitor(cfg MonitorConfig) (*Monitor, error) { return core.NewMonitor(cfg) }

// Simulate builds the scenario and generates durationS seconds of CSI,
// returning the trace and the per-person ground truth.
func Simulate(sc Scenario, durationS float64) (*Trace, []VitalTruth, error) {
	sim, err := sc.Build()
	if err != nil {
		return nil, nil, err
	}
	tr, err := sim.Generate(durationS)
	if err != nil {
		return nil, nil, err
	}
	return tr, sim.Truth(), nil
}

// NewSimulator builds a streaming simulator for the scenario (for feeding
// a Monitor in realtime).
func NewSimulator(sc Scenario) (*Simulator, error) { return sc.Build() }

// NewFaultInjector wraps a packet source with the fault-injection harness
// (loss bursts, reordering, timestamp jitter, NaN/Inf corruption, antenna
// dropouts, rate drift) for exercising the Monitor's quarantine and
// degradation paths.
func NewFaultInjector(src PacketSource, plan FaultPlan, seed int64) (*FaultInjector, error) {
	return csisim.NewFaultInjector(src, plan, seed)
}

// SimulateFixedRates builds a laboratory scene whose persons breathe at
// exactly the given rates — the controlled setup of the paper's Fig. 8.
func SimulateFixedRates(breathingBPM []float64, durationS float64, seed int64) (*Trace, []VitalTruth, error) {
	sim, err := csisim.FixedRatesScenario(breathingBPM, seed)
	if err != nil {
		return nil, nil, err
	}
	tr, err := sim.Generate(durationS)
	if err != nil {
		return nil, nil, err
	}
	return tr, sim.Truth(), nil
}

// ReadTrace decodes a binary trace.
func ReadTrace(r io.Reader) (*Trace, error) { return trace.Read(r) }

// WriteTrace encodes a trace in the binary format.
func WriteTrace(w io.Writer, tr *Trace) error { return trace.Write(w, tr) }

// ReadTraceJSON decodes a JSON-lines trace (the interoperability format).
func ReadTraceJSON(r io.Reader) (*Trace, error) { return trace.ReadJSON(r) }

// ReadTraceAuto sniffs the stream and decodes any supported trace format:
// gzip-wrapped binary, plain binary or JSON lines.
func ReadTraceAuto(r io.Reader) (*Trace, error) { return trace.ReadAuto(r) }

// WriteTraceCompressed encodes a trace as gzip-wrapped binary (~3× smaller
// than plain binary).
func WriteTraceCompressed(w io.Writer, tr *Trace) error { return trace.WriteCompressed(w, tr) }

// WriteTraceJSON encodes a trace as JSON lines for consumption outside Go.
func WriteTraceJSON(w io.Writer, tr *Trace) error { return trace.WriteJSON(w, tr) }

// OpenTraceStore opens (or, unless read-only, creates) a tiered trace
// store — the archive phasebeatd writes with -store-dir. Open it with
// ReadOnly set to replay a daemon's store for a postmortem (see
// TraceStore.ReplayThroughMonitor).
func OpenTraceStore(cfg TraceStoreConfig) (*TraceStore, error) { return store.Open(cfg) }

// DefaultBaselineConfig returns the amplitude method's defaults.
func DefaultBaselineConfig() BaselineConfig { return baseline.DefaultConfig() }

// EstimateAmplitudeBaseline runs the amplitude-based method of [13] — the
// benchmark curve in the paper's Fig. 11.
func EstimateAmplitudeBaseline(tr *Trace, cfg BaselineConfig) (*BaselineEstimate, error) {
	return baseline.EstimateBreathing(tr, cfg)
}
