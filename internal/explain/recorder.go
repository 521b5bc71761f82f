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

// Config configures a Recorder. The zero value keeps the last
// ringCapacity traces, uses the default estimate-jump threshold and never
// writes dumps (no Dir).
type Config struct {
	// Dir is the flight-dump directory. Empty disables automatic and
	// manual dumps (the ring and Last() still work, e.g. for -explain).
	Dir string
	// JumpBPM is the estimate-jump trigger threshold: two consecutive
	// breathing estimates further apart than this fire a dump. 0 selects
	// the default of 10 BPM; negative disables the trigger.
	JumpBPM float64
	// Logger, when non-nil, receives dump and write-failure events.
	Logger *slog.Logger
}

const (
	// ringCapacity is the ring size in traces.
	ringCapacity = 32
	// quarantineSpikeRate is the quarantine-spike threshold: a dump fires
	// when quarantined/(accepted+quarantined) over one stride exceeds it.
	quarantineSpikeRate = 0.05
	// cooldownStrides is the minimum number of finalized traces between
	// automatic dumps, so a persistent fault produces one bundle per
	// ring-full of context instead of one per stride.
	cooldownStrides = ringCapacity

	defaultJumpBPM = 10.0
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

// Recorder is the flight recorder: a core.StrideSink that turns each
// pipeline run's StrideRecord into an ExplainTrace, keeps the last N in a
// ring with signal snapshots, and writes a FlightDump bundle when an
// anomaly trigger fires.
//
// Wire it as the pipeline's Config.Sink — MonitorConfig.Pipeline.Sink for
// a Monitor, WithConfig for batch runs. OnStride may be called from
// several pipeline goroutines at once; Last, Dump and Entries are safe
// from any goroutine.
type Recorder struct {
	cfg Config

	mu    sync.Mutex
	ring  []Entry // finalized entries, ring[(head+i)%len] oldest-first
	head  int     // index of the oldest entry
	count int     // live entries in the ring
	seq   uint64  // finalized-trace counter

	prevBPM float64
	haveBPM bool

	dumpSeq       int    // dump files written, for unique names
	lastDumpTrace uint64 // seq at the last automatic dump, for cooldown
}

// NewRecorder applies the defaults and creates Dir when set.
func NewRecorder(cfg Config) (*Recorder, error) {
	if cfg.JumpBPM == 0 {
		cfg.JumpBPM = defaultJumpBPM
	}
	if cfg.Dir != "" {
		if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
			return nil, fmt.Errorf("explain: flight dir: %w", err)
		}
	}
	return &Recorder{cfg: cfg, ring: make([]Entry, ringCapacity)}, nil
}

// OnStride implements core.StrideSink: turn the run's record into a
// trace, store it, and fire any triggered dump.
func (r *Recorder) OnStride(rec *core.StrideRecord) {
	tr := newTrace(rec)
	snap := newSnapshot(rec.Result)
	r.mu.Lock()
	r.seq++
	tr.Seq = r.seq
	e := Entry{Trace: tr, Snapshot: snap}
	if r.count < len(r.ring) {
		r.ring[(r.head+r.count)%len(r.ring)] = e
		r.count++
	} else {
		r.ring[r.head] = e
		r.head = (r.head + 1) % len(r.ring)
	}
	dump, path := r.prepareDumpLocked(r.triggerLocked(tr), tr.Seq)
	r.mu.Unlock()
	if dump != nil {
		r.writeDump(dump, path) // a failure is logged; the stride goes on
	}
}

// newTrace builds a run's trace (without its sequence number) from the
// record: every stage with its evidence in its own slot, the final
// estimates, and the Health and its delta.
func newTrace(rec *core.StrideRecord) *Trace {
	tr := &Trace{
		Schema:      TraceSchema,
		Time:        rec.Time,
		Stages:      make([]StageRecord, len(rec.Stages)),
		Health:      rec.Health,
		HealthDelta: rec.HealthDelta,
		Degraded:    rec.HealthDelta.Degraded(),
	}
	for i, s := range rec.Stages {
		sr := StageRecord{
			Stage:       s.Stage,
			Duration:    s.Duration,
			Samples:     s.Samples,
			Subcarriers: s.Subcarriers,
			Note:        s.Note,
		}
		if s.Err != nil {
			sr.Err = s.Err.Error()
		}
		switch ev := s.Evidence.(type) {
		case *core.CalibrationEvidence:
			sr.Calibration = ev
		case *core.GateEvidence:
			sr.Gate = ev
		case *core.SelectionEvidence:
			sr.Selection = ev
		case *core.DWTEvidence:
			sr.DWT = ev
		case *core.EstimateEvidence:
			sr.Estimate = ev
		}
		tr.Stages[i] = sr
	}
	if rec.Err != nil {
		tr.Err = rec.Err.Error()
	}
	if res := rec.Result; res != nil {
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
	return tr
}

// triggerLocked evaluates the anomaly triggers against a finalized
// trace, most specific first (a batch trace's zero Health fires none of
// the health triggers), returning the trigger name or
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
	case quarantineRate(d) > quarantineSpikeRate:
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
	if r.lastDumpTrace > 0 && seq-r.lastDumpTrace < cooldownStrides {
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

// writeDump marshals and writes a prepared bundle, logging the outcome.
func (r *Recorder) writeDump(d *FlightDump, path string) error {
	data, err := json.MarshalIndent(d, "", "  ")
	if err == nil {
		err = os.WriteFile(path, data, 0o644)
	}
	if log := r.cfg.Logger; log != nil {
		if err != nil {
			log.Error("flight dump failed", "path", path, "trigger", d.Trigger, "err", err)
		} else {
			log.Info("flight dump written", "path", path, "trigger", d.Trigger,
				"seq", d.Seq, "traces", len(d.Entries), "spans", len(d.Spans))
		}
	}
	return err
}

// Dump writes the current ring as a bundle with the given trigger name
// ("" selects "manual"), bypassing the cooldown. It returns the file
// path. It fails when no dump directory is configured or the ring is
// empty.
func (r *Recorder) Dump(trigger string) (string, error) {
	return r.dumpNow(trigger, true, nil, "")
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
	return r.dumpNow(trigger, false, spans, note)
}

// dumpNow writes the ring, plus spans and a note, as a bundle outside
// the cooldown; needTraces refuses an empty ring.
func (r *Recorder) dumpNow(trigger string, needTraces bool, spans []otrace.SpanRecord, note string) (string, error) {
	if trigger == "" {
		trigger = TriggerManual
	}
	r.mu.Lock()
	switch {
	case r.cfg.Dir == "":
		r.mu.Unlock()
		return "", fmt.Errorf("explain: no flight-dump directory configured")
	case needTraces && r.count == 0:
		r.mu.Unlock()
		return "", fmt.Errorf("explain: no traces recorded yet")
	}
	d, path := r.buildDumpLocked(trigger, r.seq)
	r.mu.Unlock()
	d.Spans, d.Note = spans, note
	if err := r.writeDump(d, path); err != nil {
		return "", err
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

// Len returns the number of recorded traces currently in the ring.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.count
}
