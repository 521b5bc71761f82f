package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"phasebeat"
)

func writeTestTrace(t *testing.T) string {
	t.Helper()
	tr, _, err := phasebeat.Simulate(phasebeat.Scenario{
		Kind:          phasebeat.ScenarioLaboratory,
		TxRxDistanceM: 3,
		NumPersons:    1,
		Seed:          4,
	}, 30)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "in.pbtr")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := phasebeat.WriteTrace(f, tr); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunOnTraceFile(t *testing.T) {
	path := writeTestTrace(t)
	if err := run([]string{"-in", path, "-verbose"}); err != nil {
		t.Fatalf("run: %v", err)
	}
}

func TestRunSimulate(t *testing.T) {
	if err := run([]string{"-simulate", "-duration", "30", "-seed", "3"}); err != nil {
		t.Fatalf("run -simulate: %v", err)
	}
}

func TestRunValidation(t *testing.T) {
	if err := run(nil); err == nil {
		t.Error("want error without -in or -simulate")
	}
	if err := run([]string{"-in", "/does/not/exist"}); err == nil {
		t.Error("want error for missing file")
	}
	if err := run([]string{"-simulate", "-scenario", "bogus"}); err == nil {
		t.Error("want error for unknown scenario")
	}
	if err := run([]string{"-simulate", "-estimator", "bogus"}); err == nil {
		t.Error("want error for unknown estimator backend")
	}
	if err := run([]string{"-simulate", "-log", "bogus"}); err == nil {
		t.Error("want error for unknown log level")
	}
	// Flags that would be silently ignored are refused, naming the flag
	// they depend on.
	for _, tc := range []struct {
		args  []string
		needs string
	}{
		{[]string{"-simulate", "-explain", "-flight-jump-bpm", "5"}, "-flight-dir"},
		{[]string{"-simulate", "-fault-loss", "0.1"}, "-watch"},
		{[]string{"-simulate", "-fault-reorder", "0.1"}, "-watch"},
		{[]string{"-simulate", "-fault-nan", "0.1"}, "-watch"},
		{[]string{"-simulate", "-replay-session", "bed-17"}, "-replay-from"},
	} {
		err := run(tc.args)
		if err == nil || !strings.Contains(err.Error(), tc.needs) {
			t.Errorf("run %v: error %v, want one naming %s", tc.args, err, tc.needs)
		}
	}
	// The amplitude method of [13] is Fig. 11's separate system, not a
	// breathing backend: watch mode refuses it up front as unknown.
	if err := run([]string{"-watch", "42", "-estimator", "amplitude"}); err == nil {
		t.Error("want error for an unknown estimator in watch mode")
	} else if !strings.Contains(err.Error(), "amplitude") || !strings.Contains(err.Error(), "unknown") {
		t.Errorf("watch -estimator amplitude: error %q should name amplitude and say unknown", err)
	}
}

// TestRunBatchExplain runs the batch pipeline with -explain and checks
// the trace print path does not break the run.
func TestRunBatchExplain(t *testing.T) {
	path := writeTestTrace(t)
	if err := run([]string{"-in", path, "-explain"}); err != nil {
		t.Fatalf("run -explain: %v", err)
	}
}

// TestRunWatchFlightDump is the CLI acceptance check: a faulty watch run
// with -flight-dir must leave a quarantine-spike flight bundle behind.
func TestRunWatchFlightDump(t *testing.T) {
	dir := t.TempDir()
	err := run([]string{
		"-watch", "55", "-seed", "9", "-fault-nan", "0.1",
		"-explain", "-flight-dir", dir, "-log", "error",
	})
	if err != nil {
		t.Fatalf("run -watch -flight-dir: %v", err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "flight-*-quarantine-spike.json"))
	if err != nil || len(files) == 0 {
		all, _ := filepath.Glob(filepath.Join(dir, "*"))
		t.Fatalf("no quarantine-spike dump written; dir holds %v", all)
	}
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	var dump phasebeat.FlightDump
	if err := json.Unmarshal(data, &dump); err != nil {
		t.Fatalf("dump is not valid JSON: %v", err)
	}
	if dump.Trigger != "quarantine-spike" || len(dump.Entries) == 0 {
		t.Fatalf("dump = trigger %q with %d entries", dump.Trigger, len(dump.Entries))
	}
}

func TestRunEstimatorAndStageTimings(t *testing.T) {
	path := writeTestTrace(t)
	for _, estimator := range phasebeat.BreathingEstimators() {
		if err := run([]string{"-in", path, "-estimator", estimator, "-stage-timings"}); err != nil {
			t.Errorf("run -estimator %s: %v", estimator, err)
		}
	}
}

func TestRunWatchStageTimings(t *testing.T) {
	if err := run([]string{"-watch", "42", "-seed", "8", "-stage-timings"}); err != nil {
		t.Fatalf("run -watch -stage-timings: %v", err)
	}
}

func TestOneBased(t *testing.T) {
	got := oneBased([]int{0, 4, 29})
	want := []int{1, 5, 30}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("oneBased[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestRunWatch(t *testing.T) {
	if err := run([]string{"-watch", "42", "-seed", "8"}); err != nil {
		t.Fatalf("run -watch: %v", err)
	}
}

func TestReadTraceFileJSON(t *testing.T) {
	tr, _, err := phasebeat.Simulate(phasebeat.Scenario{
		Kind:          phasebeat.ScenarioLaboratory,
		TxRxDistanceM: 3,
		NumPersons:    1,
		Seed:          2,
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "in.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := phasebeat.WriteTraceJSON(f, tr); err != nil {
		t.Fatal(err)
	}
	f.Close()
	got, err := readTraceFile(path)
	if err != nil {
		t.Fatalf("readTraceFile(json): %v", err)
	}
	if got.Len() != tr.Len() {
		t.Errorf("len = %d, want %d", got.Len(), tr.Len())
	}
}
