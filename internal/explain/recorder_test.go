package explain

import (
	"encoding/json"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"phasebeat/internal/core"
	"phasebeat/internal/csisim"
	"phasebeat/internal/otrace"
)

// newLabSim builds a laboratory simulator with one person breathing at
// exactly bpm at an arbitrary sample rate (mirrors the core test helper,
// which is not exported).
func newLabSim(t testing.TB, rate, bpm float64, seed int64) *csisim.Simulator {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	env := csisim.Environment{
		CarrierHz:       csisim.DefaultCarrierHz,
		AntennaSpacingM: csisim.DefaultAntennaSpacingM,
		StaticPaths:     csisim.RandomStaticPaths(rng, 6, 3),
		TxRxDistanceM:   3,
	}
	pathDist := 4 + rng.Float64()*2
	p := csisim.RandomPerson(rng, pathDist, csisim.ReflectionGainForPath(pathDist, false))
	p.BreathingRateBPM = bpm
	sim, err := csisim.New(csisim.Config{
		Env:         env,
		Persons:     []csisim.Person{p},
		SampleRate:  rate,
		NumAntennas: 3,
		Seed:        rng.Int63(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return sim
}

func TestNewRecorderDefaultsAndValidation(t *testing.T) {
	r, err := NewRecorder(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if r.cfg.JumpBPM != defaultJumpBPM || len(r.ring) != ringCapacity {
		t.Fatalf("defaults not applied: %+v, ring %d", r.cfg, len(r.ring))
	}
	dir := filepath.Join(t.TempDir(), "nested", "flight")
	if _, err := NewRecorder(Config{Dir: dir}); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(dir); err != nil || !fi.IsDir() {
		t.Fatalf("dump dir not created: %v", err)
	}
}

// TestRingBounding fills the ring past capacity and checks eviction
// order: the ring holds the newest ringCapacity traces, oldest first.
func TestRingBounding(t *testing.T) {
	r, err := NewRecorder(Config{})
	if err != nil {
		t.Fatal(err)
	}
	const n = ringCapacity + 6
	for i := 0; i < n; i++ {
		r.OnStride(&core.StrideRecord{Update: core.Update{Err: errors.New("no window")}})
	}
	if r.Len() != ringCapacity {
		t.Fatalf("Len = %d, want %d", r.Len(), ringCapacity)
	}
	entries := r.Entries()
	for i, e := range entries {
		if want := uint64(7 + i); e.Trace.Seq != want {
			t.Fatalf("entry %d has seq %d, want %d", i, e.Trace.Seq, want)
		}
		if e.Trace.Err != "no window" {
			t.Fatalf("entry %d lost error text: %q", i, e.Trace.Err)
		}
	}
	if r.Last().Seq != n {
		t.Fatalf("Last().Seq = %d, want %d", r.Last().Seq, n)
	}
}

// TestStageEvidenceSlots routes each typed evidence kind of a record's
// stages through OnStride into its own JSON slot.
func TestStageEvidenceSlots(t *testing.T) {
	r, err := NewRecorder(Config{})
	if err != nil {
		t.Fatal(err)
	}
	r.OnStride(&core.StrideRecord{Stages: []core.StageStats{
		{Stage: core.StageSmooth,
			Evidence: &core.CalibrationEvidence{TrendMagnitude: 0.4}},
		{Stage: core.StageGate,
			Evidence: &core.GateEvidence{Fallback: true, Rejected: 30, Total: 30}},
		{Stage: core.StageSelect,
			Evidence: &core.SelectionEvidence{Selected: 7, MAD: []float64{1, 2}}},
		{Stage: core.StageDWT,
			Evidence: &core.DWTEvidence{BreathingEnergy: 2, HeartEnergy: 1}},
		{Stage: core.StageEstimate,
			Evidence: &core.EstimateEvidence{SNR: 9, Confidence: 0.26},
			Err:      errors.New("weak peak")},
	}})
	tr := r.Last()
	if len(tr.Stages) != 5 {
		t.Fatalf("stage count = %d, want 5", len(tr.Stages))
	}
	if tr.Stages[0].Calibration == nil || tr.Stages[0].Calibration.TrendMagnitude != 0.4 {
		t.Fatalf("calibration slot: %+v", tr.Stages[0])
	}
	if tr.Stages[1].Gate == nil || !tr.Stages[1].Gate.Fallback {
		t.Fatalf("gate slot: %+v", tr.Stages[1])
	}
	if tr.Stages[2].Selection == nil || tr.Stages[2].Selection.Selected != 7 {
		t.Fatalf("selection slot: %+v", tr.Stages[2])
	}
	if tr.Stages[3].DWT == nil || tr.Stages[3].DWT.BreathingEnergy != 2 {
		t.Fatalf("dwt slot: %+v", tr.Stages[3])
	}
	if tr.Stages[4].Estimate == nil || tr.Stages[4].Err != "weak peak" {
		t.Fatalf("estimate slot: %+v", tr.Stages[4])
	}
	// Cross-slot leakage would make the JSON ambiguous.
	if tr.Stages[0].Gate != nil || tr.Stages[1].Calibration != nil {
		t.Fatal("evidence leaked into a foreign slot")
	}
}

func breathingResult(bpm float64) *core.Result {
	return &core.Result{Breathing: &core.BreathingEstimate{RateBPM: bpm, Method: "fft"}}
}

// strideRecord builds the record a Monitor delivers for an update with
// cumulative health h, given the previous update's health prev.
func strideRecord(res *core.Result, h, prev core.Health) *core.StrideRecord {
	return &core.StrideRecord{
		Update:      core.Update{Time: 1, Result: res, Health: h},
		HealthDelta: h.Sub(prev),
	}
}

// TestTriggerMatrix drives OnStride with synthetic health counters and
// checks each anomaly condition fires its named dump, in priority order.
// A cooldown's worth of quiet strides separates the triggering strides.
func TestTriggerMatrix(t *testing.T) {
	dir := t.TempDir()
	r, err := NewRecorder(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	var prev core.Health
	h := core.Health{Accepted: 100}
	step := func(res *core.Result, mut func(*core.Health)) {
		h.Accepted += 100
		if mut != nil {
			mut(&h)
		}
		r.OnStride(strideRecord(res, h, prev))
		prev = h
	}
	quiet := func(bpm float64) {
		for i := 0; i < cooldownStrides; i++ {
			step(breathingResult(bpm), nil)
		}
	}

	step(breathingResult(15), nil) // baseline: sets prevBPM
	step(breathingResult(15), func(h *core.Health) { h.GapResets++ })
	quiet(15)
	step(breathingResult(15), func(h *core.Health) { h.QuarantinedNonFinite += 20 })
	quiet(15)
	step(breathingResult(30), nil) // 15 bpm jump
	quiet(30)
	step(breathingResult(30), func(h *core.Health) { h.UpdatesReplaced++ }) // degraded only

	want := []string{
		"flight-000001-gap-reset.json",
		"flight-000002-quarantine-spike.json",
		"flight-000003-estimate-jump.json",
		"flight-000004-health-degraded.json",
	}
	for _, name := range want {
		path := filepath.Join(dir, name)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("expected dump missing: %v", err)
		}
		var d FlightDump
		if err := json.Unmarshal(data, &d); err != nil {
			t.Fatalf("%s: invalid JSON: %v", name, err)
		}
		if d.Schema != FlightSchema {
			t.Fatalf("%s: schema %q", name, d.Schema)
		}
		if len(d.Entries) == 0 {
			t.Fatalf("%s: empty bundle", name)
		}
	}
	files, _ := filepath.Glob(filepath.Join(dir, "flight-*.json"))
	if len(files) != len(want) {
		t.Fatalf("dump count = %d (%v), want %d", len(files), files, len(want))
	}

	// The gap-reset bundle must show the triggering stride's delta.
	data, _ := os.ReadFile(filepath.Join(dir, want[0]))
	var d FlightDump
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatal(err)
	}
	last := d.Entries[len(d.Entries)-1].Trace
	if last.Seq != d.Seq || last.HealthDelta.GapResets != 1 || !last.Degraded {
		t.Fatalf("triggering trace inconsistent: %+v", last)
	}
}

// TestTriggerCooldown pins the dump rate limit: a persistent fault
// produces one bundle per cooldown window, not one per stride.
func TestTriggerCooldown(t *testing.T) {
	dir := t.TempDir()
	r, err := NewRecorder(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	var prev, h core.Health
	for i := 0; i < 2*cooldownStrides; i++ {
		h.Accepted += 100
		h.QuarantinedNonFinite += 50 // every stride spikes
		r.OnStride(strideRecord(nil, h, prev))
		prev = h
	}
	files, _ := filepath.Glob(filepath.Join(dir, "flight-*.json"))
	// Every stride triggers; dumps land on 1 and 1+cooldownStrides.
	if len(files) != 2 {
		t.Fatalf("dump count = %d (%v), want 2", len(files), files)
	}
	// Manual dumps bypass the cooldown.
	if _, err := r.Dump(""); err != nil {
		t.Fatalf("manual dump during cooldown: %v", err)
	}
}

func TestDumpErrors(t *testing.T) {
	r, err := NewRecorder(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Dump(""); err == nil {
		t.Fatal("dump without a directory succeeded")
	}
	r, err = NewRecorder(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Dump(""); err == nil {
		t.Fatal("dump with an empty ring succeeded")
	}
	r.OnStride(&core.StrideRecord{})
	path, err := r.Dump("")
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var d FlightDump
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatal(err)
	}
	if d.Trigger != TriggerManual {
		t.Fatalf("trigger = %q, want %q", d.Trigger, TriggerManual)
	}
}

func TestDecimate(t *testing.T) {
	if out, step := decimate(nil); out != nil || step != 1 {
		t.Fatalf("decimate(nil) = %v, %d", out, step)
	}
	short := []float64{1, 2, 3}
	if out, step := decimate(short); len(out) != 3 || step != 1 {
		t.Fatalf("short series decimated: %v, %d", out, step)
	}
	long := make([]float64, 1000)
	for i := range long {
		long[i] = float64(i)
	}
	out, step := decimate(long)
	if len(out) > maxSnapshotSamples {
		t.Fatalf("decimated length %d exceeds %d", len(out), maxSnapshotSamples)
	}
	if step != 8 || out[1] != 8 {
		t.Fatalf("stride = %d, out[1] = %v", step, out[1])
	}
}

func TestNewSnapshot(t *testing.T) {
	if s := newSnapshot(nil); s != nil {
		t.Fatal("snapshot from nil result")
	}
	if s := newSnapshot(&core.Result{}); s != nil {
		t.Fatal("snapshot without calibrated data")
	}
	res := &core.Result{
		Calibrated:     [][]float64{{1, 2, 3, 4}, {5, 6, 7, 8}},
		Selection:      &core.SubcarrierSelection{Selected: 1},
		Bands:          &core.DWTBands{Breathing: []float64{9, 10}},
		EstimationRate: 20,
	}
	s := newSnapshot(res)
	if s == nil || s.Subcarrier != 1 || s.Rate != 20 {
		t.Fatalf("snapshot = %+v", s)
	}
	if len(s.Calibrated) != 4 || s.Calibrated[0] != 5 {
		t.Fatalf("wrong subcarrier captured: %v", s.Calibrated)
	}
	if len(s.Breathing) != 2 {
		t.Fatalf("breathing band missing: %v", s.Breathing)
	}
	res.Selection.Selected = 5 // out of range
	if s := newSnapshot(res); s != nil {
		t.Fatal("snapshot with out-of-range selection")
	}
}

// flightDir returns the directory for integration-test dumps. CI sets
// PHASEBEAT_FLIGHT_DIR so bundles survive the run and can be uploaded as
// workflow artifacts when the suite fails.
func flightDir(t *testing.T) string {
	if env := os.Getenv("PHASEBEAT_FLIGHT_DIR"); env != "" {
		return filepath.Join(env, t.Name())
	}
	return t.TempDir()
}

// TestFlightRecorderCapturesNaNFault is the end-to-end acceptance check:
// a monitored stream with NaN fault injection must produce a
// quarantine-spike flight dump whose triggering trace shows the
// quarantined packets in its Health delta, alongside the stage evidence
// explaining the surviving estimates.
func TestFlightRecorderCapturesNaNFault(t *testing.T) {
	const (
		rate   = 100.0
		total  = 90.0 // seconds streamed; faults active 30..60 s
		window = 20.0
		stride = 5.0
	)
	dir := flightDir(t)
	rec, err := NewRecorder(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultMonitorConfig()
	cfg.SampleRate = rate
	cfg.Pipeline = core.ConfigForRate(rate)
	cfg.WindowSeconds = window
	cfg.UpdateEverySeconds = stride
	cfg.IngestBuffer = 64
	cfg.Pipeline.Observer = core.NewTimingObserver()
	cfg.Pipeline.Sink = rec

	sim := newLabSim(t, rate, 16, 11)
	fi, err := csisim.NewFaultInjector(sim, csisim.FaultPlan{
		ActiveFromS: 30, ActiveUntilS: 60,
		NaNProb: 0.1, InfProb: 0.05,
	}, 11)
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.NewMonitor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	var updates []core.Update
	done := make(chan struct{})
	go func() {
		defer close(done)
		for u := range m.Updates() {
			updates = append(updates, u)
		}
	}()
	n := int(total * rate)
	for i := 0; i < n; i++ {
		if !m.Ingest(fi.NextPacket()) {
			t.Fatal("Ingest refused while running")
		}
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		h := m.Health()
		if h.Accepted+h.Quarantined() == uint64(n) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("worker stalled: %+v", h)
		}
		time.Sleep(time.Millisecond)
	}
	m.Close()
	<-done

	if len(updates) == 0 {
		t.Fatal("no updates produced")
	}
	if m.Health().QuarantinedNonFinite == 0 {
		t.Fatal("fault injector produced no quarantined packets — test setup broken")
	}

	// The anomaly must have produced a quarantine-spike bundle.
	files, err := filepath.Glob(filepath.Join(dir, "flight-*-quarantine-spike.json"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no quarantine-spike dump in %s (err %v)", dir, err)
	}
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	var d FlightDump
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatalf("dump is not valid JSON: %v", err)
	}
	if d.Schema != FlightSchema || d.Trigger != TriggerQuarantineSpike {
		t.Fatalf("dump header = %q/%q", d.Schema, d.Trigger)
	}
	var trigger *Trace
	for _, e := range d.Entries {
		if e.Trace != nil && e.Trace.Seq == d.Seq {
			trigger = e.Trace
		}
	}
	if trigger == nil {
		t.Fatalf("triggering trace %d missing from bundle", d.Seq)
	}
	if trigger.Schema != TraceSchema {
		t.Fatalf("trace schema = %q", trigger.Schema)
	}
	if trigger.HealthDelta.Quarantined() == 0 || !trigger.Degraded {
		t.Fatalf("triggering trace does not show the quarantine spike: %+v", trigger.HealthDelta)
	}
	if quarantineRate(trigger.HealthDelta) <= quarantineSpikeRate {
		t.Fatalf("stride quarantine rate %.3f below threshold — wrong trigger attribution",
			quarantineRate(trigger.HealthDelta))
	}

	// The bundle must carry explain evidence, not just counters: at least
	// one trace with estimator evidence attached to a final BPM, and a
	// signal snapshot to eyeball.
	var sawEstimate, sawSnapshot bool
	for _, e := range d.Entries {
		if e.Snapshot != nil && len(e.Snapshot.Calibrated) > 0 {
			if len(e.Snapshot.Calibrated) > maxSnapshotSamples {
				t.Fatalf("snapshot not decimated: %d samples", len(e.Snapshot.Calibrated))
			}
			sawSnapshot = true
		}
		for _, s := range e.Trace.Stages {
			if s.Estimate != nil && e.Trace.BreathingBPM > 0 {
				if s.Estimate.BreathingBPM != e.Trace.BreathingBPM {
					t.Fatalf("estimate evidence BPM %v != trace BPM %v",
						s.Estimate.BreathingBPM, e.Trace.BreathingBPM)
				}
				sawEstimate = true
			}
		}
	}
	if !sawEstimate {
		t.Fatal("no trace in the bundle carries estimator evidence")
	}
	if !sawSnapshot {
		t.Fatal("no entry in the bundle carries a signal snapshot")
	}

	// Last() serves /debug/explain; it must reflect the newest stride.
	last := rec.Last()
	if last == nil || last.Seq != uint64(len(updates)) {
		t.Fatalf("Last() = %+v, want seq %d", last, len(updates))
	}
}

func TestDumpSpans(t *testing.T) {
	// No directory: refused, like Dump.
	r, err := NewRecorder(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.DumpSpans(TriggerSLOBurn, nil, ""); err == nil {
		t.Fatal("DumpSpans without a directory succeeded")
	}

	dir := t.TempDir()
	r, err = NewRecorder(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	spans := []otrace.SpanRecord{{
		ID: 1, Key: "sess", Seq: 3, TotalNanos: 42e6,
		Segments: []otrace.Segment{{Name: otrace.SegCompute, Nanos: 42e6}},
	}}
	// Unlike Dump, an empty trace ring is fine: the spans ARE the
	// evidence in a backlogged fleet.
	path, err := r.DumpSpans(TriggerSLOBurn, spans, `{"fast_burn":12.5}`)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var d FlightDump
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatal(err)
	}
	if d.Trigger != TriggerSLOBurn || d.Schema != FlightSchema {
		t.Fatalf("dump header = %q/%q", d.Trigger, d.Schema)
	}
	if len(d.Spans) != 1 || d.Spans[0].Key != "sess" || d.Spans[0].TotalNanos != 42e6 {
		t.Fatalf("spans did not round-trip: %+v", d.Spans)
	}
	if d.Note != `{"fast_burn":12.5}` {
		t.Fatalf("note = %q", d.Note)
	}
	// Empty trigger normalizes to manual.
	if path, err = r.DumpSpans("", nil, ""); err != nil {
		t.Fatal(err)
	}
	if base := filepath.Base(path); !strings.Contains(base, TriggerManual) {
		t.Fatalf("manual dump file %q", base)
	}
}
