package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"phasebeat/internal/benchfmt"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: phasebeat/internal/core
BenchmarkPipelineProcess/parallelism-1-8   39   29916371 ns/op   802117 packets/sec   5126518 B/op   2353 allocs/op
BenchmarkQuarantinePush-8   3525822   340.2 ns/op   0 B/op   0 allocs/op
PASS
`

// writeInput drops sample go-test output in a temp dir and returns the
// paths the CLI flags need.
func writeInput(t *testing.T, benchText string) (input, out string) {
	t.Helper()
	dir := t.TempDir()
	input = filepath.Join(dir, "bench.txt")
	if err := os.WriteFile(input, []byte(benchText), 0o644); err != nil {
		t.Fatal(err)
	}
	return input, filepath.Join(dir, "report.json")
}

func TestReportFromInputFile(t *testing.T) {
	input, out := writeInput(t, sampleOutput)
	var buf bytes.Buffer
	if err := run([]string{"-input", input, "-out", out}, &buf); err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, buf.String())
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rep, err := benchfmt.Decode(f)
	if err != nil {
		t.Fatalf("emitted report not decodable: %v", err)
	}
	if rep.Schema != benchfmt.Schema || len(rep.Benchmarks) != 2 {
		t.Fatalf("report wrong: schema=%q benchmarks=%d", rep.Schema, len(rep.Benchmarks))
	}
	if rep.Env.GoVersion == "" || rep.Env.NumCPU == 0 {
		t.Fatalf("environment fingerprint missing: %+v", rep.Env)
	}
}

// TestRepeatedRunsKeepSpread: -count repetitions collapse to the fastest
// run, and the row records how many runs there were and the slowest
// ns/op; a single run records neither.
func TestRepeatedRunsKeepSpread(t *testing.T) {
	got := fastest([]benchfmt.Benchmark{
		{Name: "BenchmarkA", NsPerOp: 120},
		{Name: "BenchmarkB", NsPerOp: 7},
		{Name: "BenchmarkA", NsPerOp: 100, AllocsPerOp: 3},
		{Name: "BenchmarkA", NsPerOp: 150},
	})
	if len(got) != 2 {
		t.Fatalf("got %d rows, want 2", len(got))
	}
	a, b := got[0], got[1]
	if a.NsPerOp != 100 || a.AllocsPerOp != 3 || a.Runs != 3 || a.NsPerOpMax != 150 {
		t.Errorf("collapsed row = %+v, want the 100 ns/op run with runs 3 and max 150", a)
	}
	if b.Runs != 0 || b.NsPerOpMax != 0 {
		t.Errorf("single-run row = %+v, want no spread fields", b)
	}
}

// TestCompareGate drives the full CLI gate: a report compared against
// itself passes, and an injected ≥20% ns/op regression fails with the
// errRegression sentinel (exit code 1 in main).
func TestCompareGate(t *testing.T) {
	input, baseline := writeInput(t, sampleOutput)
	var buf bytes.Buffer
	if err := run([]string{"-input", input, "-out", baseline}, &buf); err != nil {
		t.Fatal(err)
	}

	// Self-comparison must pass.
	out2 := filepath.Join(t.TempDir(), "fresh.json")
	buf.Reset()
	if err := run([]string{"-input", input, "-out", out2, "-compare", baseline}, &buf); err != nil {
		t.Fatalf("self-compare failed: %v\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), "no regressions") {
		t.Fatalf("missing pass verdict in output:\n%s", buf.String())
	}

	// 25% ns/op slowdown on the pipeline benchmark must trip the gate.
	slow := strings.Replace(sampleOutput, "29916371 ns/op", "37395464 ns/op", 1)
	slowInput, slowOut := writeInput(t, slow)
	buf.Reset()
	err := run([]string{"-input", slowInput, "-out", slowOut, "-compare", baseline}, &buf)
	if !errors.Is(err, errRegression) {
		t.Fatalf("want errRegression, got %v\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), "REGRESSION") {
		t.Fatalf("comparison table missing REGRESSION flag:\n%s", buf.String())
	}

	// A slowdown within tolerance passes.
	buf.Reset()
	if err := run([]string{"-input", slowInput, "-out", slowOut, "-compare", baseline, "-tolerance", "0.5"}, &buf); err != nil {
		t.Fatalf("within-tolerance compare failed: %v\n%s", err, buf.String())
	}

	// A deleted benchmark must also fail the gate.
	lines := strings.Split(sampleOutput, "\n")
	var kept []string
	for _, l := range lines {
		if !strings.Contains(l, "BenchmarkQuarantinePush") {
			kept = append(kept, l)
		}
	}
	delInput, delOut := writeInput(t, strings.Join(kept, "\n"))
	buf.Reset()
	err = run([]string{"-input", delInput, "-out", delOut, "-compare", baseline}, &buf)
	if !errors.Is(err, errRegression) {
		t.Fatalf("deleted benchmark: want errRegression, got %v\n%s", err, buf.String())
	}

	// -update rewrites the baseline instead of failing.
	buf.Reset()
	if err := run([]string{"-input", slowInput, "-out", slowOut, "-compare", baseline, "-update"}, &buf); err != nil {
		t.Fatalf("-update failed: %v\n%s", err, buf.String())
	}
	f, err := os.Open(baseline)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rep, err := benchfmt.Decode(f)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range rep.Benchmarks {
		if b.Name == "BenchmarkPipelineProcess/parallelism-1-8" && b.NsPerOp != 37395464 {
			t.Fatalf("baseline not rewritten by -update: %+v", b)
		}
	}
}

func TestNoResultsIsAnError(t *testing.T) {
	input, out := writeInput(t, "nothing to see here\n")
	if err := run([]string{"-input", input, "-out", out}, &bytes.Buffer{}); err == nil {
		t.Fatal("want error when no benchmarks parse")
	}
}

// TestFailingBenchRunStillWritesReport pins the CI contract for a broken
// benchmark: the run fails (so the gate trips) but the report is written
// from whatever output the run produced first, because the bench job
// uploads it with `if: always()` and an absent file downgrades a
// diagnosable failure to an artifact warning.
func TestFailingBenchRunStillWritesReport(t *testing.T) {
	dir := t.TempDir()
	fake := filepath.Join(dir, "fakego")
	script := "#!/bin/sh\n" +
		"echo 'BenchmarkStoreAppend-8   100   12000 ns/op   8346 B/op   1 allocs/op'\n" +
		"echo 'panic: benchmark exploded' >&2\n" +
		"exit 1\n"
	if err := os.WriteFile(fake, []byte(script), 0o755); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "BENCH_ci.json")
	var buf bytes.Buffer
	err := run([]string{"-go", fake, "-out", out}, &buf)
	if err == nil {
		t.Fatal("want the bench failure propagated")
	}
	if errors.Is(err, errRegression) {
		t.Fatalf("bench failure must be an operational error (exit 2), got gate error: %v", err)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatalf("report missing after failed run: %v", err)
	}
	defer f.Close()
	rep, err := benchfmt.Decode(f)
	if err != nil {
		t.Fatalf("report not decodable: %v", err)
	}
	if len(rep.Benchmarks) != 1 || rep.Benchmarks[0].Name != "BenchmarkStoreAppend-8" {
		t.Fatalf("partial results not kept: %+v", rep.Benchmarks)
	}
}
