// Package benchfmt defines the repository's machine-readable benchmark
// report: a schema-versioned JSON document (the BENCH_<date>.json files
// emitted by cmd/benchreport and uploaded as CI artifacts) holding
// parsed `go test -bench` results plus an environment fingerprint, and
// the comparison logic CI uses to gate performance regressions against
// the committed baseline in bench/baseline.json.
package benchfmt

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Schema is the report format identifier. Bump the trailing version on
// any incompatible change; Decode rejects reports from a different
// schema so a stale baseline fails loudly instead of comparing apples
// to oranges.
const Schema = "phasebeat-bench/v1"

// Environment fingerprints the machine a report was measured on.
// ns/op is only comparable between reports whose fingerprints match;
// Compare surfaces a mismatch as a warning, not a verdict.
type Environment struct {
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	NumCPU    int    `json:"num_cpu"`
}

// Benchmark is one parsed benchmark result. NsPerOp is always present;
// the memory columns require -benchmem and are negative when absent so
// zero-alloc benchmarks (a real and load-bearing result in this repo)
// stay distinguishable from unmeasured ones.
type Benchmark struct {
	// Name is the full benchmark name including sub-benchmark path and
	// GOMAXPROCS suffix, e.g. "BenchmarkMonitorStride/incremental-8".
	Name string `json:"name"`
	// Package is the import path the benchmark ran in, when known.
	Package string `json:"package,omitempty"`
	// Iterations is b.N of the measured run.
	Iterations int64 `json:"iterations"`
	// NsPerOp is the headline latency metric.
	NsPerOp float64 `json:"ns_per_op"`
	// BytesPerOp and AllocsPerOp mirror -benchmem; -1 = not measured.
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	// Extra holds custom b.ReportMetric units (packets/sec, ...).
	Extra map[string]float64 `json:"extra,omitempty"`
	// Runs and NsPerOpMax keep the spread of a -count N report: how many
	// runs were collapsed into this row (NsPerOp is the fastest) and the
	// slowest run's ns/op. Both are zero for a single run.
	Runs       int     `json:"runs,omitempty"`
	NsPerOpMax float64 `json:"ns_per_op_max,omitempty"`
}

// Report is the whole document.
type Report struct {
	Schema string `json:"schema"`
	// GeneratedAt is an RFC3339 timestamp (informational only; Compare
	// ignores it).
	GeneratedAt string      `json:"generated_at"`
	Env         Environment `json:"env"`
	Benchmarks  []Benchmark `json:"benchmarks"`
}

// Parse reads `go test -bench` text output and returns the benchmark
// lines in order. "pkg:" lines set the package attributed to subsequent
// benchmarks; unrelated output (ok lines, custom prints) is skipped.
func Parse(r io.Reader) ([]Benchmark, error) {
	var out []Benchmark
	pkg := ""
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if rest, ok := strings.CutPrefix(line, "pkg:"); ok {
			pkg = strings.TrimSpace(rest)
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		b, ok, err := parseLine(line)
		if err != nil {
			return nil, err
		}
		if !ok {
			continue
		}
		b.Package = pkg
		out = append(out, b)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("benchfmt: scan: %w", err)
	}
	return out, nil
}

// parseLine parses one result line:
//
//	BenchmarkName-8   123   4567 ns/op   89 B/op   2 allocs/op   10 packets/sec
//
// Lines that start with "Benchmark" but don't follow the shape (e.g. a
// benchmark's own log output) are skipped, not errors.
func parseLine(line string) (Benchmark, bool, error) {
	fields := strings.Fields(line)
	if len(fields) < 4 || len(fields)%2 != 0 {
		return Benchmark{}, false, nil
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, false, nil
	}
	b := Benchmark{
		Name:        fields[0],
		Iterations:  iters,
		NsPerOp:     -1,
		BytesPerOp:  -1,
		AllocsPerOp: -1,
	}
	for i := 2; i+1 < len(fields); i += 2 {
		val, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Benchmark{}, false, fmt.Errorf("benchfmt: bad value %q in %q", fields[i], line)
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			b.NsPerOp = val
		case "B/op":
			b.BytesPerOp = val
		case "allocs/op":
			b.AllocsPerOp = val
		default:
			if b.Extra == nil {
				b.Extra = make(map[string]float64)
			}
			b.Extra[unit] = val
		}
	}
	if b.NsPerOp < 0 {
		// A shaped line without ns/op isn't a benchmark result.
		return Benchmark{}, false, nil
	}
	return b, true, nil
}

// Encode writes the report as indented JSON with a stable benchmark
// order (sorted by package then name), so committed baselines diff
// cleanly.
func Encode(w io.Writer, rep *Report) error {
	sorted := *rep
	sorted.Benchmarks = append([]Benchmark(nil), rep.Benchmarks...)
	sort.Slice(sorted.Benchmarks, func(i, j int) bool {
		a, b := sorted.Benchmarks[i], sorted.Benchmarks[j]
		if a.Package != b.Package {
			return a.Package < b.Package
		}
		return a.Name < b.Name
	})
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(&sorted)
}

// Decode reads a report and validates its schema tag.
func Decode(r io.Reader) (*Report, error) {
	var rep Report
	dec := json.NewDecoder(r)
	if err := dec.Decode(&rep); err != nil {
		return nil, fmt.Errorf("benchfmt: decode: %w", err)
	}
	if rep.Schema != Schema {
		return nil, fmt.Errorf("benchfmt: schema %q (supported: %q)", rep.Schema, Schema)
	}
	return &rep, nil
}

// Tolerance is the allowed fractional increase per metric before a
// delta counts as a regression: 0.20 means "up to 20% slower passes".
// A negative value disables that metric's check. Improvements never
// fail, whatever their size.
type Tolerance struct {
	NsPerOp     float64
	BytesPerOp  float64
	AllocsPerOp float64
	// StrictAllocs, when non-nil, selects benchmarks whose allocs/op is
	// gated with zero tolerance: any increase over the baseline fails,
	// including any allocation at all over a zero baseline. It pins the
	// zero-copy contract of the columnar ingest/stride hot paths, which
	// the fractional AllocsPerOp tolerance cannot (30% of zero is zero,
	// but 30% of a small count would let copies creep back in).
	StrictAllocs *regexp.Regexp
}

// Delta is one metric's baseline-to-current movement.
type Delta struct {
	// Name is the benchmark; Metric the column ("ns/op", "B/op",
	// "allocs/op").
	Name   string  `json:"name"`
	Metric string  `json:"metric"`
	Base   float64 `json:"base"`
	New    float64 `json:"new"`
	// Ratio is New/Base (1.0 = unchanged; +Inf when Base is zero and
	// New is not).
	Ratio float64 `json:"ratio"`
	// Regression is true when the increase exceeds the tolerance.
	Regression bool `json:"regression"`
}

// Comparison is the verdict of comparing a current report against a
// baseline.
type Comparison struct {
	// Deltas holds every compared metric in baseline order.
	Deltas []Delta `json:"deltas"`
	// Missing are baseline benchmarks absent from the current report —
	// a silently deleted benchmark must not look like a pass.
	Missing []string `json:"missing,omitempty"`
	// Added are current benchmarks with no baseline (informational).
	Added []string `json:"added,omitempty"`
	// EnvMismatch is true when the environment fingerprints differ, in
	// which case ns/op deltas are advisory.
	EnvMismatch bool `json:"env_mismatch,omitempty"`
}

// Regressions returns the deltas flagged as regressions.
func (c *Comparison) Regressions() []Delta {
	var out []Delta
	for _, d := range c.Deltas {
		if d.Regression {
			out = append(out, d)
		}
	}
	return out
}

// Ok reports whether the comparison passes: no regressions and no
// missing benchmarks.
func (c *Comparison) Ok() bool { return len(c.Regressions()) == 0 && len(c.Missing) == 0 }

// Compare evaluates cur against base benchmark-by-benchmark (matched on
// Name). Comparing a report against itself always yields a passing,
// regression-free verdict — the schema-stability invariant the format
// tests pin.
func Compare(base, cur *Report, tol Tolerance) *Comparison {
	curByName := make(map[string]Benchmark, len(cur.Benchmarks))
	for _, b := range cur.Benchmarks {
		curByName[b.Name] = b
	}
	baseNames := make(map[string]bool, len(base.Benchmarks))
	c := &Comparison{EnvMismatch: base.Env != cur.Env}
	for _, bb := range base.Benchmarks {
		baseNames[bb.Name] = true
		nb, ok := curByName[bb.Name]
		if !ok {
			c.Missing = append(c.Missing, bb.Name)
			continue
		}
		c.compareMetric(bb.Name, "ns/op", bb.NsPerOp, nb.NsPerOp, tol.NsPerOp)
		c.compareMetric(bb.Name, "B/op", bb.BytesPerOp, nb.BytesPerOp, tol.BytesPerOp)
		allocTol := tol.AllocsPerOp
		if tol.StrictAllocs != nil && tol.StrictAllocs.MatchString(bb.Name) {
			allocTol = 0
		}
		c.compareMetric(bb.Name, "allocs/op", bb.AllocsPerOp, nb.AllocsPerOp, allocTol)
	}
	for _, nb := range cur.Benchmarks {
		if !baseNames[nb.Name] {
			c.Added = append(c.Added, nb.Name)
		}
	}
	sort.Strings(c.Missing)
	sort.Strings(c.Added)
	return c
}

// compareMetric appends one delta unless the metric is unmeasured on
// either side (negative) or its check is disabled (negative tolerance).
func (c *Comparison) compareMetric(name, metric string, base, cur, tol float64) {
	if base < 0 || cur < 0 || tol < 0 {
		return
	}
	d := Delta{Name: name, Metric: metric, Base: base, New: cur}
	switch {
	case base == 0 && cur == 0:
		d.Ratio = 1
	case base == 0:
		// Anything over a zero baseline is a regression; MaxFloat64
		// keeps the ratio JSON-marshalable (JSON has no +Inf).
		d.Ratio = math.MaxFloat64
		d.Regression = true
	default:
		d.Ratio = cur / base
		d.Regression = d.Ratio > 1+tol
	}
	c.Deltas = append(c.Deltas, d)
}
