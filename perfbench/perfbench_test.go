package main

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"testing"
	"time"

	"phasebeat/internal/csisim"
	"phasebeat/internal/store"
)

func TestQuantileInterpolates(t *testing.T) {
	var d dist
	for _, x := range []float64{5, 1, 4, 2, 3} {
		d.add(x)
	}
	cases := map[float64]float64{0: 1, 0.5: 3, 0.25: 2, 1: 5, 0.9: 4.6}
	for p, want := range cases {
		if got := d.q(p); math.Abs(got-want) > 1e-12 {
			t.Errorf("q(%v) = %v, want %v", p, got, want)
		}
	}
	if d.n() != 5 {
		t.Errorf("n = %d, want 5", d.n())
	}
	var empty dist
	if empty.q(0.5) != 0 || empty.n() != 0 {
		t.Errorf("empty sample: q %v n %d", empty.q(0.5), empty.n())
	}
}

func TestHighestSupportedPercentile(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 0.5}, {100, 0.9}, {200, 0.95}, {1000, 0.99},
	}
	for _, c := range cases {
		if got := highestSupported(c.n); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("highestSupported(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

// testSched is a 10 Hz stream with a 4-packet window and 2-packet stride.
func testSched() (sched, *sessionPlan) {
	t0 := time.Unix(1000, 0)
	return sched{t0: t0, rate: 10, wp: 4, sp: 2}, &sessionPlan{prefill: 5, phase: 0.5}
}

func TestDueTimeFromScheduleNotSend(t *testing.T) {
	sc, pl := testSched()
	// Stream index prefill is the first live packet, due half a packet
	// interval (its phase) after t0; every later index one interval on.
	if got, want := sc.due(pl, 5), sc.t0.Add(50*time.Millisecond); !got.Equal(want) {
		t.Errorf("due(5) = %v, want %v", got, want)
	}
	if got, want := sc.due(pl, 8), sc.t0.Add(350*time.Millisecond); !got.Equal(want) {
		t.Errorf("due(8) = %v, want %v", got, want)
	}
	// Prefill indices fall before t0 and are never expected.
	if !sc.due(pl, 4).Before(sc.t0) {
		t.Error("a prefill packet is due after t0")
	}
}

func TestExpectedUpdateBookkeeping(t *testing.T) {
	sc, pl := testSched()
	ep := &epoch{plan: pl, start: 0}
	// Window of 4 → first trigger at index 3, then every 2: 3, 5, 7, 9, ...
	for j, want := range map[int]bool{2: false, 3: true, 4: false, 5: true, 9: true, 10: false} {
		if got := sc.isTrigger(0, j); got != want {
			t.Errorf("isTrigger(0, %d) = %v, want %v", j, got, want)
		}
	}
	// An update completed late by shed packets answers the stride before.
	for j, want := range map[int]int{2: -1, 3: 3, 4: 3, 5: 5, 10: 9} {
		if got := sc.nominal(0, j); got != want {
			t.Errorf("nominal(0, %d) = %d, want %d", j, got, want)
		}
	}
	// Index 3 is a prefill trigger (due before t0); in [t0, t0+600ms) the
	// due times of 5, 7, 9 are 50, 250, 450 ms and 11 is due at 650 ms.
	got := sc.triggers(ep, sc.t0.Add(600*time.Millisecond))
	if want := []int{5, 7, 9}; !equalInts(got, want) {
		t.Errorf("triggers = %v, want %v", got, want)
	}
	// A churned epoch restarts its window at its first fed index.
	re := &epoch{plan: pl, start: 6}
	if got, want := sc.triggers(re, sc.t0.Add(700*time.Millisecond)), []int{9, 11}; !equalInts(got, want) {
		t.Errorf("churned epoch triggers = %v, want %v", got, want)
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestAccountClassifiesUpdates(t *testing.T) {
	sc, pl := testSched()
	pl.scene = &scene{truth: []csisim.VitalTruth{{BreathingBPM: 15, HeartBPM: 70}}}
	fr := &fleetRun{
		shape: fleetShape{name: "unit", rate: 10, breathBound: 3},
		sc:    sc,
		end:   sc.t0.Add(time.Second),
		late:  200 * time.Millisecond,
	}
	est := estimate{breath: []float64{15.5}, heart: 71}
	ep := &epoch{plan: pl, key: "k", start: 0, got: []arrival{
		{seq: 1, j: 3, recv: sc.t0.Add(-time.Millisecond), est: est, ok: true},             // prefill: ignored
		{seq: 2, j: 5, recv: sc.due(pl, 5).Add(10 * time.Millisecond), est: est, ok: true}, // on time
		{seq: 3, j: 7, recv: sc.due(pl, 7).Add(300 * time.Millisecond), est: est, ok: true},
		// A shed packet delays stride 9 to index 10: it still answers 9.
		{seq: 4, j: 10, recv: sc.due(pl, 10).Add(time.Millisecond), est: est, ok: true},
		// Stride 11 never arrives; 13 carries an error.
		{seq: 5, j: 13, recv: sc.due(pl, 13).Add(time.Millisecond), err: errors.New("no stationary segment")},
	}}
	fr.reg.add(ep)
	res := newResult("unit")
	fr.account(res)
	// Expected: strides 5, 7, 9, 11, 13 (due 50…850 ms).
	if res.attempted != 5 || res.failed != 3 {
		t.Fatalf("attempted %d failed %d, want 5 and 3 (late, missing, Err)", res.attempted, res.failed)
	}
	lat := res.metrics["update_latency_p50_ms"]
	if lat.n != 4 || math.Abs(lat.value-5.5) > 1e-6 {
		t.Errorf("latency p50 %v ms over %d, want 5.5 ms over 4 (10, 300, 1, 1)", lat.value, lat.n)
	}
	if b := res.metrics["eval.breath_err_bpm_p50"]; b.n != 2 || math.Abs(b.value-0.5) > 1e-9 {
		t.Errorf("breath error %v over %d, want 0.5 over the 2 on-time estimates", b.value, b.n)
	}
	if len(res.problems) != 0 {
		t.Errorf("unexpected correctness problems: %v", res.problems)
	}

	// A non-finite rate trips the correctness gate.
	ep.got = append(ep.got, arrival{seq: 7, j: 15, recv: sc.due(pl, 15), est: estimate{breath: []float64{math.NaN()}}, ok: true})
	res = newResult("unit")
	fr.account(res)
	if len(res.problems) == 0 {
		t.Error("a NaN rate passed the correctness gate")
	}
}

func TestChurnedEpochScope(t *testing.T) {
	sc, pl := testSched()
	fr := &fleetRun{sc: sc, end: sc.t0.Add(time.Second), late: 200 * time.Millisecond}
	open := &epoch{plan: pl}
	if got := fr.scopeEnd(open); !got.Equal(fr.end) {
		t.Errorf("open epoch scope ends %v, want the end of the run", got)
	}
	closed := &epoch{plan: pl, closedAt: sc.t0.Add(500 * time.Millisecond)}
	if got, want := fr.scopeEnd(closed), sc.t0.Add(300*time.Millisecond); !got.Equal(want) {
		t.Errorf("closed epoch scope ends %v, want one lateness bound before the close", got)
	}
}

func TestCheckRange(t *testing.T) {
	good := &store.RangeResult{Tier: "10s", Wave: []store.TierBin{
		{Start: 10, Count: 3, Min: 1, Max: 3, First: 2, Last: 1},
		{Start: 20, Count: 1, Min: 2, Max: 2, First: 2, Last: 2},
	}}
	if err := checkRange(good, 12, 25, "10s"); err != nil {
		t.Errorf("good tier answer rejected: %v", err)
	}
	misaligned := &store.RangeResult{Tier: "10s", Wave: []store.TierBin{{Start: 15, Count: 1}}}
	if checkRange(misaligned, 12, 25, "10s") == nil {
		t.Error("misaligned bin accepted")
	}
	outside := &store.RangeResult{Tier: "10s", Wave: []store.TierBin{{Start: 30, Count: 1}}}
	if checkRange(outside, 12, 25, "10s") == nil {
		t.Error("bin outside the range accepted")
	}
	if checkRange(&store.RangeResult{Tier: "1s"}, 12, 25, "10s") == nil {
		t.Error("answer from the wrong tier accepted")
	}
	// Auto-pick: a 90 s span fits four 10 s bins but not four 60 s bins.
	if err := checkRange(&store.RangeResult{Tier: "10s"}, 0, 90, ""); err != nil {
		t.Errorf("auto-picked 10s tier rejected: %v", err)
	}
	raw := &store.RangeResult{Tier: store.RawTier, Samples: []store.Sample{{T: 12}, {T: 13}}}
	if err := checkRange(raw, 12, 25, store.RawTier); err != nil {
		t.Errorf("good raw answer rejected: %v", err)
	}
	raw.Samples = append(raw.Samples, store.Sample{T: 25})
	if checkRange(raw, 12, 25, store.RawTier) == nil {
		t.Error("raw sample at the exclusive end accepted")
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metric tables the
// program prints in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit string
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	for _, w := range bj.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q has no runner", w.Name)
		}
	}
	if len(bj.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program %d", len(bj.Workloads), len(workloads))
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []spec) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd)
	check("per_layer", bj.PerLayer, perLayer)
}

// Smoke configurations: each workload's mechanics, seconds long.

var smokeFleet = fleetShape{
	name: "paper-rate-smoke", rate: 400, subcarriers: 30, window: 30, stride: 1,
	sessions: 4, scenes: 2, twoPersonScenes: 1, twoPersonEvery: 4,
	kinds: []csisim.ScenarioKind{csisim.ScenarioLaboratory},
	conns: ingestConns, breathBound: 10, lagBound: 0.5,
}

var smokeFanin = fleetShape{
	name: "fanin-archive-smoke", rate: 30, subcarriers: 16, window: 8, stride: 2,
	sessions: 24, scenes: 2,
	kinds: []csisim.ScenarioKind{csisim.ScenarioLaboratory},
	conns: ingestConns, store: true, blockSeconds: 2, queriesPerSec: 20, churnPerSec: 0.05,
	breathBound: 10, lagBound: 0.5,
}

var smokeBatch = batchShape{
	name: "batch-eval-smoke", traces: 2, twoPerson: 1, rate: 400, seconds: 20,
	kinds:       []csisim.ScenarioKind{csisim.ScenarioLaboratory, csisim.ScenarioThroughWall},
	breathBound: 10,
}

func smokeCheck(t *testing.T, run func(runOpts) (*result, error)) {
	t.Helper()
	for _, traced := range []bool{false, true} {
		res, err := run(runOpts{seed: 5, seconds: 3, workdir: t.TempDir(), traced: traced})
		if err != nil {
			t.Fatal(err)
		}
		if !res.correct() || res.attempted == 0 || res.failed != 0 {
			t.Fatalf("traced=%v: correct %v attempted %d failed %d problems %v info %v",
				traced, res.correct(), res.attempted, res.failed, res.problems, res.info)
		}
		for _, s := range endToEnd {
			if m := res.metrics[s.name]; !(m.value > 0) {
				t.Errorf("traced=%v: end-to-end %s = %v, want > 0", traced, s.name, m.value)
			}
		}
		if traced && res.recon == "" {
			t.Error("traced pass printed no reconciliation")
		}
	}
}

func TestSmokePaperRate(t *testing.T) {
	smokeCheck(t, func(o runOpts) (*result, error) { return runFleet(smokeFleet, o) })
}

func TestSmokeFaninArchive(t *testing.T) {
	smokeCheck(t, func(o runOpts) (*result, error) {
		res, err := runFleet(smokeFanin, o)
		if err == nil && o.traced && res.metrics["store.seals"].value == 0 {
			t.Error("no store block sealed during the run")
		}
		return res, err
	})
}

func TestSmokeBatchEval(t *testing.T) {
	smokeCheck(t, func(o runOpts) (*result, error) { return runBatch(smokeBatch, o) })
}
