package core

import (
	"log/slog"
	"sync/atomic"
	"time"

	"phasebeat/internal/otrace"
)

// StrideRecord is the one observation record of a pipeline run: a batch
// Process call or one Monitor stride. Every internal consumer — stage
// metrics, span child stages, the degraded-stride log line, the explain
// flight recorder — reads it instead of hooking the stages. A record is
// built whole per run, so concurrent runs never interleave their stages.
type StrideRecord struct {
	// Update is the run's outcome. Batch runs fill Result and Err and
	// leave Time, Health and Trace zero.
	Update
	// HealthDelta is Health minus the previous delivered update's Health:
	// the faults observed during this stride. Zero on batch runs.
	HealthDelta Health
	// Stages lists every stage that ran, in run order. Each carries its
	// typed evidence (see evidence.go) when a Sink is configured.
	Stages []StageStats
}

// StrideSink receives one StrideRecord per pipeline run, set as
// Config.Sink. Processor.Process hands over the record when the run ends,
// success or failure; a Monitor hands it over after the stride's update
// has been committed to the consumer channel, so the sink sees exactly
// the delivered updates. Configuring a sink turns on stage evidence.
//
// OnStride runs on the pipeline goroutine and may be called concurrently
// by a shared Processor: keep it cheap and safe for concurrent use. The
// record is the sink's to keep. Inside a Monitor, panics are recovered and
// counted in Health.ObserverPanics.
type StrideSink interface {
	OnStride(rec *StrideRecord)
}

// newStrideRecord returns an empty record sized for the full stage graph.
func newStrideRecord() *StrideRecord {
	return &StrideRecord{Stages: make([]StageStats, 0, frontEndStages+len(stages))}
}

// spanStages converts the record's stage timings into span child stages;
// nil when the run was not recorded.
func (r *StrideRecord) spanStages() []otrace.Stage {
	if r == nil || len(r.Stages) == 0 {
		return nil
	}
	out := make([]otrace.Stage, len(r.Stages))
	for i, s := range r.Stages {
		out[i] = otrace.Stage{Name: s.Stage, Nanos: s.Duration.Nanoseconds()}
	}
	return out
}

// observerGuard shields a Monitor's run loop from panicking third-party
// observation code (the live StageObserver and the StrideSink): a
// recovered panic is counted in Health.ObserverPanics and logged, and
// that run's observation is lost. A nil guard — the batch Processor's —
// recovers nothing, so panics propagate to the caller of Process.
type observerGuard struct {
	panics *atomic.Uint64
	logger *slog.Logger
}

// recoverPanic is deferred around every third-party observation callback.
func (g *observerGuard) recoverPanic(callback, stage string) {
	if g == nil {
		return
	}
	r := recover()
	if r == nil {
		return
	}
	g.panics.Add(1)
	if g.logger != nil {
		g.logger.Error("observer panicked", "callback", callback, "stage", stage, "panic", r)
	}
}

// observed reports whether a run recording into rec wants stage stats:
// a record to append to or a live observer to call.
func (p *Processor) observed(rec *StrideRecord) bool {
	return rec != nil || p.cfg.Observer != nil
}

// beginStage opens one stage's observation: the live observer's start
// callback, then the clock read the stage's duration runs from. An
// unobserved run reads no clock.
func (p *Processor) beginStage(rec *StrideRecord, stage string) time.Time {
	if !p.observed(rec) {
		return time.Time{}
	}
	if obs := p.cfg.Observer; obs != nil {
		p.notifyStart(obs, stage)
	}
	return time.Now()
}

func (p *Processor) notifyStart(obs StageObserver, stage string) {
	defer p.guard.recoverPanic("OnStageStart", stage)
	obs.OnStageStart(stage)
}

// endStage closes a stage opened by beginStage: it stamps s.Duration,
// appends s to the run's record and hands the same value to the live
// observer. Call it only for observed runs.
func (p *Processor) endStage(rec *StrideRecord, start time.Time, s StageStats) {
	s.Duration = time.Since(start)
	if rec != nil {
		rec.Stages = append(rec.Stages, s)
	}
	if obs := p.cfg.Observer; obs != nil {
		defer p.guard.recoverPanic("OnStageEnd", s.Stage)
		obs.OnStageEnd(s)
	}
}

// emit hands a finished record to the configured sink.
func (p *Processor) emit(rec *StrideRecord) {
	defer p.guard.recoverPanic("OnStride", "")
	p.cfg.Sink.OnStride(rec)
}
