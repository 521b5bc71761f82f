// Command perfbench is phasebeat's end-to-end benchmark. It hosts the real
// layers in one process behind their public APIs — the fleet manager and
// its TCP frame server, the tiered trace store as the fleet recorder, and
// the batch Processor — drives them from csisim-generated inputs, checks
// the outputs, and prints every metric by name with its unit and sample
// count. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end set, measured with every
// hook off. With -trace 1 the same workload and seed run twice — once
// untraced, once with the per-layer hooks on — and the metrics are the
// per-layer set, plus a reconciliation line showing how much of the
// end-to-end latency the layers account for.
//
// Usage (from the repository root; perfbench/run.sh builds and runs it):
//
//	perfbench -workload paper-rate|fanin-archive|batch-eval -seed N -seconds S -trace 0|1
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// errIncorrect marks a run whose outputs failed a correctness check: the
// result line is still printed (with "correct": false), then the process
// exits non-zero.
var errIncorrect = errors.New("outputs failed a correctness check")

func run(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 0, "workload seed: scenes, traces, stagger and churn derive from it")
	seconds := fs.Float64("seconds", 10, "measured interval per pass, in seconds")
	traced := fs.Int("trace", 0, "0: end-to-end metrics, hooks off; 1: per-layer metrics from an extra traced pass")
	workdir := fs.String("workdir", ".bench_build", "scratch directory for the trace store")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q (have %s)", *name, strings.Join(workloadNames(), ", "))
	}
	if *seconds <= 0 {
		return fmt.Errorf("-seconds must be positive, got %v", *seconds)
	}
	if *traced != 0 && *traced != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", *traced)
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		return err
	}
	opts := runOpts{seed: *seed, seconds: *seconds, workdir: *workdir}

	fmt.Printf("perfbench: workload %s, seed %d, %.0fs measured, GOMAXPROCS %d, trace %d\n",
		w.name, *seed, *seconds, runtime.GOMAXPROCS(0), *traced)
	base, err := w.run(opts)
	if err != nil {
		return err
	}
	out := base
	if *traced == 1 {
		opts.traced = true
		tr, err := w.run(opts)
		if err != nil {
			return err
		}
		tr.setOverhead(base)
		out = tr
	}
	out.print(os.Stdout, *traced == 1)
	if !out.correct() {
		return errIncorrect
	}
	return nil
}

// runOpts are the per-invocation knobs every workload runner takes.
type runOpts struct {
	seed    int64
	seconds float64
	workdir string
	traced  bool
}

// workload is one named benchmark configuration.
type workload struct {
	name string
	run  func(runOpts) (*result, error)
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
