// Command benchreport turns the repository's Go benchmarks into a
// machine-readable, schema-versioned performance report and gates CI on
// regressions against a committed baseline.
//
// It runs the configured benchmarks (`go test -bench`), parses the
// output, and writes a BENCH_<date>.json report (ns/op, B/op,
// allocs/op, custom metrics, environment fingerprint). With -compare it
// also diffs the fresh report against a baseline report and exits
// nonzero when any metric regressed beyond tolerance — the contract the
// CI bench job enforces.
//
// Usage:
//
//	benchreport                            # run benches, write BENCH_<date>.json
//	benchreport -compare bench/baseline.json
//	benchreport -compare bench/baseline.json -update   # refresh the baseline
//	benchreport -input bench.txt -out r.json           # parse, don't run
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"strings"
	"time"

	"phasebeat/internal/benchfmt"
)

// errRegression distinguishes "the gate failed" (exit 1) from
// operational errors (exit 2).
var errRegression = errors.New("benchmark regression")

func main() {
	err := run(os.Args[1:], os.Stdout)
	switch {
	case err == nil:
	case errors.Is(err, errRegression):
		fmt.Fprintln(os.Stderr, "benchreport:", err)
		os.Exit(1)
	default:
		fmt.Fprintln(os.Stderr, "benchreport:", err)
		os.Exit(2)
	}
}

// defaultBench selects the tracked benchmarks: the two pipeline
// throughput benchmarks, the smooth stage's two median kernels (trend
// median and Hampel smoother, full window and per-stride ranges), the
// per-packet quarantine, DWT and root-MUSIC hot paths, the columnar-ingest
// microbenchmarks, the fleet daemon's session-density harness
// (sessions/core Extra metric), the trace store's append and tier-query
// paths, and the latency tracer's per-packet overhead (disabled and
// enabled).
const defaultBench = "BenchmarkPipelineProcess$|BenchmarkMonitorStride$|BenchmarkRunningMedianStrided$|BenchmarkHampel$|BenchmarkQuarantinePush$|BenchmarkDWTDenoise$|BenchmarkRootMUSIC$|BenchmarkEstimateStage$|BenchmarkColumnarIngest$|BenchmarkFleetDensity$|BenchmarkStoreAppend$|BenchmarkStoreRangeQuery$|BenchmarkSpanIngestOverhead$"

// defaultStrictAllocs selects the zero-alloc hot paths whose allocs/op
// is gated with zero tolerance against the baseline: warm columnar
// ingest and the per-packet push must never start allocating again, and
// the fractional tolerance cannot express that (30% of zero is zero,
// but the gate must fail on 0 → 1). Benchmarks with small nonzero alloc
// counts (the stride/pipeline runs) stay on the fractional gate — GC
// timing refills their pools by a few allocs run to run, which strict
// gating would misread as regressions. The tracer's per-packet span path
// is strict-gated too, disabled (the zero-overhead contract) and enabled
// on an unretained span, as are the warm median kernels, whose scratch
// is pooled.
const defaultStrictAllocs = "BenchmarkColumnarIngest|BenchmarkQuarantinePush$|BenchmarkSpanIngestOverhead/|BenchmarkRunningMedianStrided/|BenchmarkHampel/"

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("benchreport", flag.ContinueOnError)
	bench := fs.String("bench", defaultBench, "benchmark regex passed to go test -bench")
	packages := fs.String("packages", "./internal/core ./internal/dsp ./internal/music ./internal/arena ./internal/fleet ./internal/store ./internal/otrace", "space-separated packages to benchmark")
	benchtime := fs.String("benchtime", "200ms", "per-benchmark measurement time (go test -benchtime)")
	count := fs.Int("count", 1, "benchmark repetitions; the fastest run per benchmark is kept")
	cpu := fs.String("cpu", "1", "go test -cpu list; pinned to 1 so benchmark names and serial latency are machine-stable (empty = go default)")
	out := fs.String("out", "", "report output path (default BENCH_<date>.json)")
	input := fs.String("input", "", "parse this go-test output file instead of running benchmarks")
	compare := fs.String("compare", "", "baseline report to compare against; exit 1 on regression")
	tolNs := fs.Float64("tolerance", 0.20, "allowed fractional ns/op increase before failing")
	tolMem := fs.Float64("mem-tolerance", 0.30, "allowed fractional B/op and allocs/op increase before failing")
	strictAllocs := fs.String("strict-allocs", defaultStrictAllocs, "benchmark-name regex gated at zero allocs/op tolerance (empty disables)")
	update := fs.Bool("update", false, "with -compare: rewrite the baseline with the fresh report instead of failing")
	goBin := fs.String("go", "go", "go tool to run benchmarks with")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *count < 1 {
		*count = 1
	}

	var raw io.Reader
	var runErr error
	if *input != "" {
		f, err := os.Open(*input)
		if err != nil {
			return err
		}
		defer f.Close()
		raw = f
	} else {
		// A failing bench run still produced output up to the failure;
		// keep it so the report below is written either way — the CI
		// bench job uploads it with `if: always()`, and an absent file
		// turns a diagnosable failure into an artifact warning.
		text, err := runBenchmarks(*goBin, *bench, *benchtime, *cpu, *count, strings.Fields(*packages), stdout)
		runErr = err
		raw = strings.NewReader(text)
	}
	benches, err := benchfmt.Parse(raw)
	if err != nil {
		if runErr != nil {
			return runErr
		}
		return err
	}
	rep := &benchfmt.Report{
		Schema:      benchfmt.Schema,
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		Env: benchfmt.Environment{
			GoVersion: runtime.Version(),
			GOOS:      runtime.GOOS,
			GOARCH:    runtime.GOARCH,
			NumCPU:    runtime.NumCPU(),
		},
		Benchmarks: fastest(benches),
	}

	path := *out
	if path == "" {
		path = "BENCH_" + time.Now().UTC().Format("2006-01-02") + ".json"
	}
	if err := writeReport(path, rep); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "benchreport: %d benchmarks -> %s\n", len(rep.Benchmarks), path)
	if runErr != nil {
		return fmt.Errorf("%s written from partial output; %w", path, runErr)
	}
	if len(benches) == 0 {
		return fmt.Errorf("no benchmark results parsed (regex %q)", *bench)
	}

	if *compare == "" {
		return nil
	}
	bf, err := os.Open(*compare)
	if err != nil {
		return fmt.Errorf("baseline: %w", err)
	}
	base, err := benchfmt.Decode(bf)
	bf.Close()
	if err != nil {
		return fmt.Errorf("baseline %s: %w", *compare, err)
	}
	tol := benchfmt.Tolerance{NsPerOp: *tolNs, BytesPerOp: *tolMem, AllocsPerOp: *tolMem}
	if *strictAllocs != "" {
		tol.StrictAllocs, err = regexp.Compile(*strictAllocs)
		if err != nil {
			return fmt.Errorf("-strict-allocs: %w", err)
		}
	}
	cmp := benchfmt.Compare(base, rep, tol)
	printComparison(stdout, cmp)
	if *update {
		if err := writeReport(*compare, rep); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "benchreport: baseline %s updated\n", *compare)
		return nil
	}
	if !cmp.Ok() {
		return fmt.Errorf("%w: %d regressed, %d missing (baseline %s)",
			errRegression, len(cmp.Regressions()), len(cmp.Missing), *compare)
	}
	fmt.Fprintf(stdout, "benchreport: no regressions against %s\n", *compare)
	return nil
}

// runBenchmarks shells out to go test and returns its textual output,
// echoing it to w so CI logs keep the raw numbers. On failure the output
// captured so far is returned alongside the error — partial results are
// still worth a report.
func runBenchmarks(goBin, bench, benchtime, cpu string, count int, pkgs []string, w io.Writer) (string, error) {
	if len(pkgs) == 0 {
		return "", errors.New("no packages to benchmark")
	}
	args := []string{"test", "-run", "^$", "-bench", bench, "-benchmem", "-benchtime", benchtime}
	if cpu != "" {
		args = append(args, "-cpu", cpu)
	}
	if count > 1 {
		args = append(args, "-count", fmt.Sprint(count))
	}
	args = append(args, pkgs...)
	var sb strings.Builder
	cmd := exec.Command(goBin, args...)
	cmd.Stdout = io.MultiWriter(&sb, w)
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return sb.String(), fmt.Errorf("go test -bench: %w", err)
	}
	return sb.String(), nil
}

// fastest collapses -count repetitions: for each benchmark name the run
// with the lowest ns/op is kept, the usual noise-rejection for wall-
// clock metrics, together with the run count and the slowest ns/op so
// the report records the spread.
func fastest(benches []benchfmt.Benchmark) []benchfmt.Benchmark {
	best := make(map[string]int)
	var out []benchfmt.Benchmark
	for _, b := range benches {
		i, seen := best[b.Name]
		if !seen {
			best[b.Name] = len(out)
			out = append(out, b)
			continue
		}
		runs, slowest := out[i].Runs, max(out[i].NsPerOpMax, out[i].NsPerOp, b.NsPerOp)
		if runs == 0 {
			runs = 1
		}
		if b.NsPerOp < out[i].NsPerOp {
			out[i] = b
		}
		out[i].Runs, out[i].NsPerOpMax = runs+1, slowest
	}
	return out
}

func writeReport(path string, rep *benchfmt.Report) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := benchfmt.Encode(f, rep); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printComparison renders the deltas as an aligned table, regressions
// flagged, so the CI log shows the full trajectory at a glance.
func printComparison(w io.Writer, cmp *benchfmt.Comparison) {
	if cmp.EnvMismatch {
		fmt.Fprintln(w, "benchreport: WARNING: environment fingerprint differs from baseline; ns/op deltas are advisory")
	}
	fmt.Fprintf(w, "%-55s %-10s %14s %14s %8s\n", "benchmark", "metric", "base", "new", "ratio")
	for _, d := range cmp.Deltas {
		flag := ""
		if d.Regression {
			flag = "  REGRESSION"
		}
		fmt.Fprintf(w, "%-55s %-10s %14.1f %14.1f %7.2fx%s\n", d.Name, d.Metric, d.Base, d.New, d.Ratio, flag)
	}
	for _, name := range cmp.Missing {
		fmt.Fprintf(w, "%-55s MISSING from current run\n", name)
	}
	for _, name := range cmp.Added {
		fmt.Fprintf(w, "%-55s new benchmark (no baseline)\n", name)
	}
}
