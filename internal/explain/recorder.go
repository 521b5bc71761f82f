package explain

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"math"
	"os"
	"path/filepath"
	"sync"
	"time"

	"phasebeat/internal/core"
	"phasebeat/internal/otrace"
)

// Config configures a Recorder. The zero value records 32 traces with
// default trigger thresholds and never writes dumps (no Dir).
type Config struct {
	// Capacity is the ring size in traces; 0 selects 32, negative is an
	// error.
	Capacity int
	// Dir is the flight-dump directory. Empty disables automatic and
	// manual dumps (the ring and Last() still work, e.g. for -explain).
	Dir string
	// JumpBPM is the estimate-jump trigger threshold: two consecutive
	// breathing estimates further apart than this fire a dump. 0 selects
	// the default of 10 BPM; negative disables the trigger.
	JumpBPM float64
	// QuarantineRate is the quarantine-spike threshold: a dump fires
	// when quarantined/(accepted+quarantined) over one stride exceeds
	// it. 0 selects the default of 0.05; negative disables the trigger.
	QuarantineRate float64
	// CooldownStrides is the minimum number of finalized traces between
	// automatic dumps, so a persistent fault produces one bundle per
	// ring-full of context instead of one per stride. 0 selects the
	// capacity; negative disables the cooldown.
	CooldownStrides int
	// Logger, when non-nil, receives dump and write-failure events.
	Logger *slog.Logger
}

const (
	defaultCapacity       = 32
	defaultJumpBPM        = 10.0
	defaultQuarantineRate = 0.05
)

// Trigger names reported in FlightDump.Trigger and filenames.
const (
	TriggerGapReset        = "gap-reset"
	TriggerQuarantineSpike = "quarantine-spike"
	TriggerEstimateJump    = "estimate-jump"
	TriggerHealthDegraded  = "health-degraded"
	TriggerSLOBurn         = "slo-burn"
	TriggerManual          = "manual"
)

// Recorder is the flight recorder: a core.StageObserver that assembles
// an ExplainTrace per pipeline run, keeps the last N in a ring with
// signal snapshots, and writes a FlightDump bundle when an anomaly
// trigger fires.
//
// Wire it into a Monitor as both Pipeline.Observer (via
// core.CombineObservers with any other observers) and
// MonitorConfig.UpdateObserver; on batch runs set it as the processor
// observer and call RecordResult after Process. Stage callbacks and
// OnUpdate run on the pipeline goroutine; Last, Dump and Entries are
// safe from any goroutine.
type Recorder struct {
	cfg Config

	mu      sync.Mutex
	pending *Trace  // trace being assembled by stage callbacks
	ring    []Entry // finalized entries, ring[(head+i)%len] oldest-first
	head    int     // index of the oldest entry
	count   int     // live entries in the ring
	seq     uint64  // finalized-trace counter

	prevHealth core.Health
	haveHealth bool
	prevBPM    float64
	haveBPM    bool

	dumpSeq       int    // dump files written, for unique names
	lastDumpTrace uint64 // seq at the last automatic dump, for cooldown
}

// NewRecorder validates cfg, applies defaults, and creates Dir when set.
func NewRecorder(cfg Config) (*Recorder, error) {
	if cfg.Capacity < 0 {
		return nil, fmt.Errorf("explain: negative ring capacity %d", cfg.Capacity)
	}
	if cfg.Capacity == 0 {
		cfg.Capacity = defaultCapacity
	}
	if cfg.JumpBPM == 0 {
		cfg.JumpBPM = defaultJumpBPM
	}
	if cfg.QuarantineRate == 0 {
		cfg.QuarantineRate = defaultQuarantineRate
	}
	if cfg.CooldownStrides == 0 {
		cfg.CooldownStrides = cfg.Capacity
	}
	if cfg.Dir != "" {
		if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
			return nil, fmt.Errorf("explain: flight dir: %w", err)
		}
	}
	return &Recorder{cfg: cfg, ring: make([]Entry, cfg.Capacity)}, nil
}

// CollectEvidence implements core.EvidenceCollector: a wired Recorder
// always wants stage evidence.
func (r *Recorder) CollectEvidence() bool { return true }

// OnStageStart implements core.StageObserver.
func (r *Recorder) OnStageStart(string) {}

// OnStageEnd implements core.StageObserver: append the stage record to
// the trace under assembly.
func (r *Recorder) OnStageEnd(s core.StageStats) {
	rec := StageRecord{
		Stage:       s.Stage,
		Duration:    s.Duration,
		Samples:     s.Samples,
		Subcarriers: s.Subcarriers,
		Note:        s.Note,
	}
	if s.Err != nil {
		rec.Err = s.Err.Error()
	}
	switch ev := s.Evidence.(type) {
	case *core.CalibrationEvidence:
		rec.Calibration = ev
	case *core.GateEvidence:
		rec.Gate = ev
	case *core.SelectionEvidence:
		rec.Selection = ev
	case *core.DWTEvidence:
		rec.DWT = ev
	case *core.EstimateEvidence:
		rec.Estimate = ev
	}
	r.mu.Lock()
	if r.pending == nil {
		r.pending = &Trace{Schema: TraceSchema}
	}
	r.pending.Stages = append(r.pending.Stages, rec)
	r.mu.Unlock()
}

// OnUpdate implements core.UpdateObserver: finalize the pending trace
// with the stride's result, Health and Health delta, store it, and fire
// any triggered dump.
func (r *Recorder) OnUpdate(u core.Update) {
	r.mu.Lock()
	tr := r.finalizeLocked(u.Result, u.Err)
	tr.Time = u.Time
	tr.Health = u.Health
	if r.haveHealth {
		tr.HealthDelta = u.Health.Sub(r.prevHealth)
	} else {
		tr.HealthDelta = u.Health
	}
	tr.Degraded = tr.HealthDelta.Degraded()
	r.prevHealth = u.Health
	r.haveHealth = true
	trigger := r.triggerLocked(tr)
	dump, path := r.prepareDumpLocked(trigger, tr.Seq)
	r.mu.Unlock()
	r.writeDump(dump, path)
}

// RecordResult finalizes the pending trace for a batch run (no Monitor,
// so no Health) and returns it.
func (r *Recorder) RecordResult(res *core.Result, err error) *Trace {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.finalizeLocked(res, err)
}

// finalizeLocked turns the pending stage records into a stored Entry.
func (r *Recorder) finalizeLocked(res *core.Result, err error) *Trace {
	tr := r.pending
	if tr == nil {
		tr = &Trace{Schema: TraceSchema}
	}
	r.pending = nil
	r.seq++
	tr.Seq = r.seq
	if err != nil {
		tr.Err = err.Error()
	}
	if res != nil {
		if res.Breathing != nil {
			tr.BreathingBPM = res.Breathing.RateBPM
		}
		if res.Heart != nil {
			tr.HeartBPM = res.Heart.RateBPM
		}
		if res.MultiPerson != nil {
			tr.RatesBPM = append([]float64(nil), res.MultiPerson.RatesBPM...)
		}
	}
	e := Entry{Trace: tr, Snapshot: newSnapshot(res)}
	if r.count < len(r.ring) {
		r.ring[(r.head+r.count)%len(r.ring)] = e
		r.count++
	} else {
		r.ring[r.head] = e
		r.head = (r.head + 1) % len(r.ring)
	}
	return tr
}

// triggerLocked evaluates the anomaly triggers against a finalized
// streaming trace, most specific first, returning the trigger name or
// "". The estimate-jump state updates even while other triggers fire,
// so a jump is judged against the last estimate actually produced.
func (r *Recorder) triggerLocked(tr *Trace) string {
	jump := false
	if tr.BreathingBPM > 0 {
		if r.haveBPM && r.cfg.JumpBPM > 0 &&
			math.Abs(tr.BreathingBPM-r.prevBPM) > r.cfg.JumpBPM {
			jump = true
		}
		r.prevBPM = tr.BreathingBPM
		r.haveBPM = true
	}
	d := tr.HealthDelta
	switch {
	case d.GapResets > 0:
		return TriggerGapReset
	case r.cfg.QuarantineRate > 0 && quarantineRate(d) > r.cfg.QuarantineRate:
		return TriggerQuarantineSpike
	case jump:
		return TriggerEstimateJump
	case d.PacketsDropped > 0 || d.UpdatesReplaced > 0 || d.ObserverPanics > 0:
		return TriggerHealthDegraded
	}
	return ""
}

// quarantineRate is the stride's quarantined fraction of offered packets.
func quarantineRate(d core.Health) float64 {
	q := float64(d.Quarantined())
	total := float64(d.Accepted) + q
	if total == 0 {
		return 0
	}
	return q / total
}

// prepareDumpLocked decides whether a triggered dump should be written
// (dir configured, cooldown elapsed) and, if so, snapshots the ring into
// a FlightDump. The file write happens outside the lock.
func (r *Recorder) prepareDumpLocked(trigger string, seq uint64) (*FlightDump, string) {
	if trigger == "" || r.cfg.Dir == "" {
		return nil, ""
	}
	if r.cfg.CooldownStrides > 0 && r.lastDumpTrace > 0 &&
		seq-r.lastDumpTrace < uint64(r.cfg.CooldownStrides) {
		return nil, ""
	}
	r.lastDumpTrace = seq
	return r.buildDumpLocked(trigger, seq)
}

// buildDumpLocked snapshots the ring into a bundle and reserves a file
// name for it.
func (r *Recorder) buildDumpLocked(trigger string, seq uint64) (*FlightDump, string) {
	d := &FlightDump{
		Schema:    FlightSchema,
		Trigger:   trigger,
		Seq:       seq,
		WrittenAt: time.Now().UTC().Format(time.RFC3339Nano),
		Entries:   make([]Entry, 0, r.count),
	}
	for i := 0; i < r.count; i++ {
		d.Entries = append(d.Entries, r.ring[(r.head+i)%len(r.ring)])
	}
	r.dumpSeq++
	name := fmt.Sprintf("flight-%06d-%s.json", r.dumpSeq, trigger)
	return d, filepath.Join(r.cfg.Dir, name)
}

// writeDump marshals and writes a prepared bundle; a nil dump is a no-op.
func (r *Recorder) writeDump(d *FlightDump, path string) {
	if d == nil {
		return
	}
	data, err := json.MarshalIndent(d, "", "  ")
	if err == nil {
		err = os.WriteFile(path, data, 0o644)
	}
	log := r.cfg.Logger
	if err != nil {
		if log != nil {
			log.Error("flight dump failed", "path", path, "trigger", d.Trigger, "err", err)
		}
		return
	}
	if log != nil {
		log.Info("flight dump written",
			"path", path, "trigger", d.Trigger, "seq", d.Seq, "traces", len(d.Entries))
	}
}

// Dump writes the current ring as a bundle with the given trigger name
// ("" selects "manual"), bypassing the cooldown. It returns the file
// path. It fails when no dump directory is configured or the ring is
// empty.
func (r *Recorder) Dump(trigger string) (string, error) {
	if trigger == "" {
		trigger = TriggerManual
	}
	r.mu.Lock()
	if r.cfg.Dir == "" {
		r.mu.Unlock()
		return "", fmt.Errorf("explain: no flight-dump directory configured")
	}
	if r.count == 0 {
		r.mu.Unlock()
		return "", fmt.Errorf("explain: no traces recorded yet")
	}
	d, path := r.buildDumpLocked(trigger, r.seq)
	r.mu.Unlock()
	data, err := json.MarshalIndent(d, "", "  ")
	if err == nil {
		err = os.WriteFile(path, data, 0o644)
	}
	if err != nil {
		return "", err
	}
	if r.cfg.Logger != nil {
		r.cfg.Logger.Info("flight dump written",
			"path", path, "trigger", trigger, "seq", d.Seq, "traces", len(d.Entries))
	}
	return path, nil
}

// DumpSpans writes a bundle for an externally detected condition —
// phasebeatd wires the SLO burn tracker's OnBurn callback here with
// TriggerSLOBurn — attaching the latency tracer's retained spans and a
// free-form note alongside the trace ring. Unlike Dump, an empty ring
// is allowed (in a backlogged fleet the spans are the evidence even
// before per-session traces accumulate), and the recorder's stride
// cooldown is bypassed: the external trigger owns its own rate limit
// (the SLO tracker's BurnCooldown).
func (r *Recorder) DumpSpans(trigger string, spans []otrace.SpanRecord, note string) (string, error) {
	if trigger == "" {
		trigger = TriggerManual
	}
	r.mu.Lock()
	if r.cfg.Dir == "" {
		r.mu.Unlock()
		return "", fmt.Errorf("explain: no flight-dump directory configured")
	}
	d, path := r.buildDumpLocked(trigger, r.seq)
	r.mu.Unlock()
	d.Spans = spans
	d.Note = note
	data, err := json.MarshalIndent(d, "", "  ")
	if err == nil {
		err = os.WriteFile(path, data, 0o644)
	}
	if err != nil {
		return "", err
	}
	if r.cfg.Logger != nil {
		r.cfg.Logger.Info("flight dump written",
			"path", path, "trigger", trigger, "traces", len(d.Entries), "spans", len(spans))
	}
	return path, nil
}

// Last returns the most recently finalized trace, nil when none exists.
// The returned trace is shared and must be treated as read-only.
func (r *Recorder) Last() *Trace {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.count == 0 {
		return nil
	}
	return r.ring[(r.head+r.count-1)%len(r.ring)].Trace
}

// Entries returns a copy of the ring, oldest first.
func (r *Recorder) Entries() []Entry {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Entry, 0, r.count)
	for i := 0; i < r.count; i++ {
		out = append(out, r.ring[(r.head+i)%len(r.ring)])
	}
	return out
}

// Len returns the number of recorded traces currently in the ring.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.count
}
