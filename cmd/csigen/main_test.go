package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"phasebeat"
	"phasebeat/internal/trace"
)

func TestRunGeneratesReadableTrace(t *testing.T) {
	out := filepath.Join(t.TempDir(), "t.pbtr")
	err := run([]string{
		"-out", out, "-scenario", "corridor", "-distance", "5",
		"-duration", "2", "-seed", "7",
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tr, err := trace.Read(f)
	if err != nil {
		t.Fatalf("trace.Read: %v", err)
	}
	if tr.Len() != 800 { // 2 s at 400 Hz
		t.Errorf("packets = %d, want 800", tr.Len())
	}
}

// TestRunEchoesSeed pins the stderr seed echo: flight-recorder dumps
// reference traces by generation parameters, so the line must name the
// exact seed needed to regenerate one.
func TestRunEchoesSeed(t *testing.T) {
	rd, wr, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	origStderr := os.Stderr
	os.Stderr = wr
	runErr := run([]string{
		"-out", filepath.Join(t.TempDir(), "t.pbtr"), "-duration", "0.5", "-seed", "424242",
	})
	os.Stderr = origStderr
	wr.Close()
	captured, _ := io.ReadAll(rd)
	rd.Close()
	if runErr != nil {
		t.Fatalf("run: %v", runErr)
	}
	if !strings.Contains(string(captured), "seed 424242") {
		t.Fatalf("stderr missing seed echo:\n%s", captured)
	}
}

func TestRunValidation(t *testing.T) {
	if err := run(nil); err == nil {
		t.Error("want error without -out")
	}
	if err := run([]string{"-out", "x", "-scenario", "bogus"}); err == nil {
		t.Error("want error for unknown scenario")
	}
	if err := run([]string{"-out", "/nonexistent-dir/x", "-duration", "0.1"}); err == nil {
		t.Error("want error for unwritable output")
	}
}

func TestScenarioKind(t *testing.T) {
	for name, want := range map[string]phasebeat.ScenarioKind{
		"lab":      phasebeat.ScenarioLaboratory,
		"wall":     phasebeat.ScenarioThroughWall,
		"corridor": phasebeat.ScenarioCorridor,
	} {
		got, err := scenarioKind(name)
		if err != nil || got != want {
			t.Errorf("scenarioKind(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := scenarioKind("nope"); err == nil {
		t.Error("want error for unknown name")
	}
}

func TestRunJSONFormat(t *testing.T) {
	out := filepath.Join(t.TempDir(), "t.json")
	if err := run([]string{"-out", out, "-duration", "1", "-format", "json"}); err != nil {
		t.Fatalf("run json: %v", err)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tr, err := trace.ReadJSON(f)
	if err != nil {
		t.Fatalf("trace.ReadJSON: %v", err)
	}
	if tr.Len() != 400 {
		t.Errorf("packets = %d, want 400", tr.Len())
	}
	if err := run([]string{"-out", out, "-duration", "1", "-format", "bogus"}); err == nil {
		t.Error("want error for unknown format")
	}
}

func TestRunGzipFormat(t *testing.T) {
	out := filepath.Join(t.TempDir(), "t.pbtr.gz")
	if err := run([]string{"-out", out, "-duration", "1", "-format", "gzip"}); err != nil {
		t.Fatalf("run gzip: %v", err)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tr, err := trace.ReadCompressed(f)
	if err != nil {
		t.Fatalf("trace.ReadCompressed: %v", err)
	}
	if tr.Len() != 400 {
		t.Errorf("packets = %d, want 400", tr.Len())
	}
}
