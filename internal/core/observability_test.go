package core

import (
	"math"
	"reflect"
	"sync"
	"testing"
	"time"

	"phasebeat/internal/metrics"
)

// recordSink is a StrideSink keeping every record it receives.
type recordSink struct {
	mu   sync.Mutex
	recs []*StrideRecord
}

func (s *recordSink) OnStride(rec *StrideRecord) {
	s.mu.Lock()
	s.recs = append(s.recs, rec)
	s.mu.Unlock()
}

// records returns a copy of the received records, in arrival order.
func (s *recordSink) records() []*StrideRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*StrideRecord(nil), s.recs...)
}

// byStage indexes a record's stages by stage name.
func byStage(rec *StrideRecord) map[string]StageStats {
	out := make(map[string]StageStats, len(rec.Stages))
	for _, s := range rec.Stages {
		out[s.Stage] = s
	}
	return out
}

// TestBatchEvidenceCollection runs the batch pipeline with a sink and
// checks that every evidence-bearing stage of the record it receives
// carries its typed evidence with sane contents.
func TestBatchEvidenceCollection(t *testing.T) {
	sim := newFixedSim(t, 100, 16, 21)
	tr, err := sim.Generate(60)
	if err != nil {
		t.Fatal(err)
	}
	sink := &recordSink{}
	cfg := ConfigForRate(100)
	cfg.Sink = sink
	proc, err := NewProcessor(WithConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	res, err := proc.Process(tr)
	if err != nil {
		t.Fatal(err)
	}

	recs := sink.records()
	if len(recs) != 1 || recs[0].Result != res || recs[0].Err != nil {
		t.Fatalf("sink received %d records, want the one run's", len(recs))
	}
	if recs[0].Health != (Health{}) || recs[0].HealthDelta != (Health{}) {
		t.Fatalf("batch record carries health %+v / %+v, want zero", recs[0].Health, recs[0].HealthDelta)
	}
	by := byStage(recs[0])
	cal, ok := by[StageSmooth].Evidence.(*CalibrationEvidence)
	if !ok {
		t.Fatalf("smooth evidence = %T, want *CalibrationEvidence", by[StageSmooth].Evidence)
	}
	if cal.TrendMagnitude <= 0 || !isFinite(cal.TrendMagnitude) {
		t.Fatalf("trend magnitude = %v, want positive finite", cal.TrendMagnitude)
	}
	gate, ok := by[StageGate].Evidence.(*GateEvidence)
	if !ok {
		t.Fatalf("gate evidence = %T, want *GateEvidence", by[StageGate].Evidence)
	}
	if gate.Total != tr.NumSubcarriers {
		t.Fatalf("gate total = %d, want %d", gate.Total, tr.NumSubcarriers)
	}
	sel, ok := by[StageSelect].Evidence.(*SelectionEvidence)
	if !ok {
		t.Fatalf("select evidence = %T, want *SelectionEvidence", by[StageSelect].Evidence)
	}
	if len(sel.MAD) != tr.NumSubcarriers || sel.Selected != res.Selection.Selected {
		t.Fatalf("selection evidence %+v inconsistent with result selection %+v", sel, res.Selection)
	}
	if len(sel.TopK) == 0 {
		t.Fatal("selection evidence has empty TopK")
	}
	dwt, ok := by[StageDWT].Evidence.(*DWTEvidence)
	if !ok {
		t.Fatalf("dwt evidence = %T, want *DWTEvidence", by[StageDWT].Evidence)
	}
	if dwt.BreathingEnergy <= dwt.HeartEnergy {
		t.Fatalf("breathing band energy %v not dominating heart %v on a breathing-only subject",
			dwt.BreathingEnergy, dwt.HeartEnergy)
	}
	est, ok := by[StageEstimate].Evidence.(*EstimateEvidence)
	if !ok {
		t.Fatalf("estimate evidence = %T, want *EstimateEvidence", by[StageEstimate].Evidence)
	}
	if len(est.Peaks) == 0 {
		t.Fatal("estimate evidence has no spectrum peaks")
	}
	if est.BreathingBPM != res.Breathing.RateBPM {
		t.Fatalf("evidence BPM %v != result BPM %v", est.BreathingBPM, res.Breathing.RateBPM)
	}
	if math.Abs(est.Peaks[0].BPM-res.Breathing.RateBPM) > 2 {
		t.Fatalf("strongest peak %v bpm far from estimate %v bpm", est.Peaks[0].BPM, res.Breathing.RateBPM)
	}
	if est.SNR <= 1 {
		t.Fatalf("SNR = %v, want > 1 on a clean fixed-rate scene", est.SNR)
	}
	if est.Confidence <= 0 || est.Confidence >= 1 {
		t.Fatalf("confidence = %v, want in (0, 1)", est.Confidence)
	}
}

// TestEvidenceSkippedWithoutCollector pins the opt-in contract: without a
// Sink, the live observer must see nil Evidence on every stage.
func TestEvidenceSkippedWithoutCollector(t *testing.T) {
	sim := newFixedSim(t, 100, 16, 21)
	tr, err := sim.Generate(60)
	if err != nil {
		t.Fatal(err)
	}
	var got []StageStats
	cfg := ConfigForRate(100)
	cfg.Observer = &statsFunc{fn: func(s StageStats) { got = append(got, s) }}
	proc, err := NewProcessor(WithConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := proc.Process(tr); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(StageNames()) {
		t.Fatalf("observer saw %d stages, want %d", len(got), len(StageNames()))
	}
	for _, s := range got {
		if s.Evidence != nil {
			t.Fatalf("stage %s carried evidence %T without a sink", s.Stage, s.Evidence)
		}
	}
}

// statsFunc adapts a function to StageObserver.
type statsFunc struct{ fn func(StageStats) }

func (o *statsFunc) OnStageStart(string)     {}
func (o *statsFunc) OnStageEnd(s StageStats) { o.fn(s) }

// TestIncrementalStrideEvidence drives the incremental engine directly
// with a sink configured and checks the ring-cache path's hand-built
// smooth and gate stages carry calibration and gate evidence in the
// stride's record, including on the margin-reuse stride.
func TestIncrementalStrideEvidence(t *testing.T) {
	cfg := faultMonitorConfig()
	cfg.Pipeline.Sink = &recordSink{}
	proc, err := NewProcessor(WithConfig(cfg.Pipeline), WithPersons(1))
	if err != nil {
		t.Fatal(err)
	}
	eng := cfg.newEngine(proc)
	sim := newFixedSim(t, faultMatrixRate, faultMatrixBPM, 3)
	window := int(faultMatrixWindow * faultMatrixRate)
	stride := int(faultMatrixStride * faultMatrixRate)
	for i := 0; i < window; i++ {
		if v, _ := eng.push(sim.NextPacket()); v != pushAccepted {
			t.Fatalf("packet %d rejected", i)
		}
	}
	eng.rec = newStrideRecord()
	if _, err := eng.process(); err != nil {
		t.Fatalf("first stride: %v", err)
	}
	// Second stride exercises the margin-only reuse branch.
	for i := 0; i < stride; i++ {
		eng.push(sim.NextPacket())
	}
	eng.rec = newStrideRecord()
	if _, err := eng.process(); err != nil {
		t.Fatalf("reuse stride: %v", err)
	}

	var names []string
	for _, s := range eng.rec.Stages {
		names = append(names, s.Stage)
	}
	if want := StageNames()[1:]; !reflect.DeepEqual(names, want) {
		t.Fatalf("stride record stages = %v, want %v", names, want)
	}
	by := byStage(eng.rec)
	cal, ok := by[StageSmooth].Evidence.(*CalibrationEvidence)
	if !ok {
		t.Fatalf("incremental smooth evidence = %T, want *CalibrationEvidence", by[StageSmooth].Evidence)
	}
	if cal.TrendMagnitude <= 0 || !isFinite(cal.TrendMagnitude) {
		t.Fatalf("incremental trend magnitude = %v, want positive finite", cal.TrendMagnitude)
	}
	if _, ok := by[StageGate].Evidence.(*GateEvidence); !ok {
		t.Fatalf("incremental gate evidence = %T, want *GateEvidence", by[StageGate].Evidence)
	}
	if _, ok := by[StageEstimate].Evidence.(*EstimateEvidence); !ok {
		t.Fatalf("stream estimate evidence = %T, want *EstimateEvidence", by[StageEstimate].Evidence)
	}
}

// panicObserver panics in the chosen callback — the hostile third-party
// observer of the regression test.
type panicObserver struct{ onStart, onEnd bool }

func (o *panicObserver) OnStageStart(string) {
	if o.onStart {
		panic("observer start boom")
	}
}

func (o *panicObserver) OnStageEnd(StageStats) {
	if o.onEnd {
		panic("observer end boom")
	}
}

// TestMonitorSurvivesPanickingStageObserver: a panicking third-party
// live StageObserver must not kill the Monitor run loop — strides keep
// completing, and every panic is counted in Health.ObserverPanics.
func TestMonitorSurvivesPanickingStageObserver(t *testing.T) {
	cfg := allocTestConfig()
	cfg.Pipeline.Observer = &panicObserver{onStart: true, onEnd: true}
	m, err := NewMonitor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	sim := newFixedSim(t, cfg.SampleRate, 16, 5)
	var updates []Update
	done := make(chan struct{})
	go func() {
		defer close(done)
		for u := range m.Updates() {
			updates = append(updates, u)
		}
	}()
	total := int(12 * cfg.SampleRate) // window 8 s + several 1 s strides
	for i := 0; i < total; i++ {
		if !m.Ingest(sim.NextPacket()) {
			t.Fatal("Ingest refused: worker died")
		}
	}
	deadline := time.Now().Add(30 * time.Second)
	for m.Health().Accepted != uint64(total) {
		if time.Now().After(deadline) {
			t.Fatalf("worker stalled: accepted %d of %d", m.Health().Accepted, total)
		}
		time.Sleep(time.Millisecond)
	}
	m.Close()
	<-done

	if len(updates) == 0 {
		t.Fatal("no updates delivered with a panicking observer")
	}
	// Both callbacks of every stage of every stride panicked; the run
	// loop kept going past each one.
	h := m.Health()
	if min := uint64(2 * len(updates)); h.ObserverPanics < min {
		t.Fatalf("ObserverPanics = %d, want at least %d", h.ObserverPanics, min)
	}
	if !h.Degraded() {
		t.Fatal("observer panics not reported as degraded health")
	}
}

// panicSink panics on every record.
type panicSink struct{}

func (panicSink) OnStride(*StrideRecord) { panic("sink boom") }

// TestMonitorSurvivesPanickingUpdateObserver extends the contract to the
// StrideSink.
func TestMonitorSurvivesPanickingUpdateObserver(t *testing.T) {
	cfg := allocTestConfig()
	cfg.Pipeline.Sink = panicSink{}
	m, err := NewMonitor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	sim := newFixedSim(t, cfg.SampleRate, 16, 5)
	var updates []Update
	done := make(chan struct{})
	go func() {
		defer close(done)
		for u := range m.Updates() {
			updates = append(updates, u)
		}
	}()
	total := int(10 * cfg.SampleRate)
	for i := 0; i < total; i++ {
		if !m.Ingest(sim.NextPacket()) {
			t.Fatal("Ingest refused: worker died")
		}
	}
	deadline := time.Now().Add(30 * time.Second)
	for m.Health().Accepted != uint64(total) {
		if time.Now().After(deadline) {
			t.Fatalf("worker stalled: accepted %d of %d", m.Health().Accepted, total)
		}
		time.Sleep(time.Millisecond)
	}
	m.Close()
	<-done

	if len(updates) == 0 {
		t.Fatal("no updates delivered with a panicking sink")
	}
	// Delivery is the commit point and the sink runs only for
	// committed updates, so Close racing the final stride either
	// delivers-and-observes it or suppresses both: the panic count
	// matches the delivered count exactly, with no "±1 final update"
	// tolerance.
	if p := m.Health().ObserverPanics; p != uint64(len(updates)) {
		t.Fatalf("ObserverPanics = %d, want exactly one per delivered update (%d)",
			p, len(updates))
	}
}

// TestHealthSubSaturates pins the wraparound contract: subtracting a
// snapshot with larger counters (a stale snapshot kept across a monitor
// restart, or one from a different monitor) clamps at zero instead of
// wrapping to ~2^64.
func TestHealthSubSaturates(t *testing.T) {
	stale := Health{Accepted: 500, QuarantinedNonFinite: 9, GapResets: 4, UpdatesReplaced: 2}
	fresh := Health{Accepted: 30, QuarantinedNonFinite: 2, GapResets: 1}
	d := fresh.Sub(stale)
	if d != (Health{}) {
		t.Fatalf("saturating Sub = %+v, want all-zero", d)
	}
	if d.Degraded() {
		t.Fatal("clamped delta reported degraded")
	}
	// Mixed case: counters that did advance still report exact deltas.
	prev := Health{Accepted: 100, GapResets: 5}
	now := Health{Accepted: 150, GapResets: 3, ObserverPanics: 2}
	d = now.Sub(prev)
	if d.Accepted != 50 || d.GapResets != 0 || d.ObserverPanics != 2 {
		t.Fatalf("mixed Sub = %+v", d)
	}
	if !d.Degraded() {
		t.Fatal("observer-panic delta not degraded")
	}
	if s := d.String(); s == "ok" {
		t.Fatalf("degraded delta String() = %q", s)
	}
}

// TestMonitorDeliverSlowConsumerAccounting hammers deliver against a full
// channel with no consumer: every replaced update is counted, and the
// surviving update's own Health reflects all evictions.
func TestMonitorDeliverSlowConsumerAccounting(t *testing.T) {
	m := &Monitor{
		cfg:     MonitorConfig{DropOnBacklog: true},
		updates: make(chan Update, 1),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	const n = 25
	for i := 1; i <= n; i++ {
		u := Update{Time: float64(i), Health: m.health.snapshot()}
		if !m.deliver(&u) {
			t.Fatalf("deliver %d failed", i)
		}
	}
	if got := m.Health().UpdatesReplaced; got != n-1 {
		t.Fatalf("UpdatesReplaced = %d, want %d", got, n-1)
	}
	u := <-m.updates
	if u.Time != n {
		t.Fatalf("survivor is t=%v, want the newest t=%d", u.Time, n)
	}
	if u.Health.UpdatesReplaced != n-1 {
		t.Fatalf("survivor's Health.UpdatesReplaced = %d, want %d", u.Health.UpdatesReplaced, n-1)
	}
}

// TestSharedSinkConcurrentProcess pins the record contract under
// concurrency: one sink shared by eight concurrent Process calls receives
// eight whole records, each holding the nine stages in graph order with
// evidence on every evidence-bearing stage — runs never interleave.
func TestSharedSinkConcurrentProcess(t *testing.T) {
	sim := newFixedSim(t, 100, 16, 21)
	tr, err := sim.Generate(60)
	if err != nil {
		t.Fatal(err)
	}
	sink := &recordSink{}
	cfg := ConfigForRate(100)
	cfg.Sink = sink
	proc, err := NewProcessor(WithConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	const runs = 8
	var wg sync.WaitGroup
	for i := 0; i < runs; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := proc.Process(tr); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()

	recs := sink.records()
	if len(recs) != runs {
		t.Fatalf("sink received %d records, want %d", len(recs), runs)
	}
	withEvidence := map[string]bool{
		StageSmooth: true, StageGate: true, StageSelect: true, StageDWT: true, StageEstimate: true,
	}
	for i, rec := range recs {
		var names []string
		for _, s := range rec.Stages {
			names = append(names, s.Stage)
			if (s.Evidence != nil) != withEvidence[s.Stage] {
				t.Fatalf("record %d stage %s: evidence %T", i, s.Stage, s.Evidence)
			}
		}
		if !reflect.DeepEqual(names, StageNames()) {
			t.Fatalf("record %d stages = %v, want %v", i, names, StageNames())
		}
	}
}

// TestMetricsOnlyMonitorComputesNoEvidence: a Monitor with only Metrics
// wired records its strides (the metrics read the record) but computes no
// evidence — only a Sink turns evidence on.
func TestMetricsOnlyMonitorComputesNoEvidence(t *testing.T) {
	cfg := faultMonitorConfig()
	cfg.Metrics = metrics.NewRegistry()
	m, err := NewMonitor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Stop the worker, then drive the Monitor's own stride path on a
	// fresh engine: handle builds the stride's record exactly as the
	// worker would (delivery is refused after Close).
	m.Close()
	eng := m.cfg.newEngine(m.processor)
	defer eng.release()
	sim := newFixedSim(t, faultMatrixRate, faultMatrixBPM, 3)
	for eng.rec == nil {
		m.handle(eng, inPacket{pkt: sim.NextPacket()})
	}
	if got, want := len(eng.rec.Stages), len(StageNames())-1; got != want {
		t.Fatalf("stride record holds %d stages, want %d", got, want)
	}
	for _, s := range eng.rec.Stages {
		if s.Evidence != nil {
			t.Fatalf("stage %s computed evidence %T without a sink", s.Stage, s.Evidence)
		}
	}
	if eng.trendAbs != nil {
		t.Fatal("calibration evidence accumulator allocated without a sink")
	}
}
