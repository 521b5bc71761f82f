package benchfmt

import (
	"bytes"
	"encoding/json"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// ciTolerance is the gate benchreport applies by default: ns/op at 20%,
// the noisier memory metrics at 30%.
var ciTolerance = Tolerance{NsPerOp: 0.20, BytesPerOp: 0.30, AllocsPerOp: 0.30}

const sampleBenchOutput = `
goos: linux
goarch: amd64
pkg: phasebeat/internal/core
cpu: SomeCPU @ 2.80GHz
BenchmarkPipelineProcess/parallelism-1-8         	      39	  29916371 ns/op	        802117 packets/sec	 5126518 B/op	    2353 allocs/op
BenchmarkMonitorStride/incremental-8             	     278	   4304885 ns/op	        464588 packets/sec	    4103 samples/stride	  171684 B/op	     240 allocs/op
BenchmarkQuarantinePush-8                        	 3525822	       340.2 ns/op	       0 B/op	       0 allocs/op
PASS
ok  	phasebeat/internal/core	24.462s
pkg: phasebeat/internal/wavelet
BenchmarkDWT-8                                   	   10000	    112003 ns/op
Benchmark output that is not a result line
PASS
`

func sampleReport(t *testing.T) *Report {
	t.Helper()
	benches, err := Parse(strings.NewReader(sampleBenchOutput))
	if err != nil {
		t.Fatal(err)
	}
	return &Report{
		Schema:      Schema,
		GeneratedAt: "2026-08-06T00:00:00Z",
		Env:         Environment{GoVersion: "go1.24.0", GOOS: "linux", GOARCH: "amd64", NumCPU: 8},
		Benchmarks:  benches,
	}
}

func TestParseGoBenchOutput(t *testing.T) {
	benches, err := Parse(strings.NewReader(sampleBenchOutput))
	if err != nil {
		t.Fatal(err)
	}
	if len(benches) != 4 {
		t.Fatalf("parsed %d benchmarks, want 4: %+v", len(benches), benches)
	}
	b := benches[0]
	if b.Name != "BenchmarkPipelineProcess/parallelism-1-8" || b.Package != "phasebeat/internal/core" {
		t.Fatalf("first benchmark misparsed: %+v", b)
	}
	if b.Iterations != 39 || b.NsPerOp != 29916371 || b.BytesPerOp != 5126518 || b.AllocsPerOp != 2353 {
		t.Fatalf("columns misparsed: %+v", b)
	}
	if b.Extra["packets/sec"] != 802117 {
		t.Fatalf("extra metric misparsed: %+v", b.Extra)
	}
	// Zero-alloc result stays 0, not "unmeasured".
	if q := benches[2]; q.BytesPerOp != 0 || q.AllocsPerOp != 0 {
		t.Fatalf("zero-alloc columns misparsed: %+v", q)
	}
	// No -benchmem columns → -1 sentinels.
	if d := benches[3]; d.BytesPerOp != -1 || d.AllocsPerOp != -1 || d.Package != "phasebeat/internal/wavelet" {
		t.Fatalf("memless benchmark misparsed: %+v", d)
	}
}

// TestRoundTripAndIdenticalVerdict is the format-stability test the CI
// gate relies on: encode → decode must preserve every benchmark, and
// comparing a report against its own round-tripped copy must produce
// the identical (passing, regression-free) verdict.
func TestRoundTripAndIdenticalVerdict(t *testing.T) {
	rep := sampleReport(t)
	var buf bytes.Buffer
	if err := Encode(&buf, rep); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Schema != Schema || got.Env != rep.Env || len(got.Benchmarks) != len(rep.Benchmarks) {
		t.Fatalf("round trip lost data: %+v", got)
	}
	byName := make(map[string]Benchmark)
	for _, b := range got.Benchmarks {
		byName[b.Name] = b
	}
	for _, want := range rep.Benchmarks {
		if !reflect.DeepEqual(byName[want.Name], want) {
			t.Errorf("benchmark %s changed in round trip:\n got %+v\nwant %+v", want.Name, byName[want.Name], want)
		}
	}

	cmp := Compare(rep, got, ciTolerance)
	if !cmp.Ok() {
		t.Fatalf("self-comparison must pass: regressions=%v missing=%v", cmp.Regressions(), cmp.Missing)
	}
	if len(cmp.Missing) != 0 || len(cmp.Added) != 0 || cmp.EnvMismatch {
		t.Fatalf("self-comparison verdict not identical: %+v", cmp)
	}
	for _, d := range cmp.Deltas {
		if d.Ratio != 1 || d.Regression {
			t.Fatalf("self-comparison delta not identity: %+v", d)
		}
	}
}

// TestSchemaStability pins the on-disk field names: a committed
// baseline must stay decodable, so renaming a JSON key is a schema
// break that must bump Schema.
func TestSchemaStability(t *testing.T) {
	rep := sampleReport(t)
	var buf bytes.Buffer
	if err := Encode(&buf, rep); err != nil {
		t.Fatal(err)
	}
	var raw map[string]any
	if err := json.Unmarshal(buf.Bytes(), &raw); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"schema", "generated_at", "env", "benchmarks"} {
		if _, ok := raw[key]; !ok {
			t.Errorf("top-level key %q missing", key)
		}
	}
	first := raw["benchmarks"].([]any)[0].(map[string]any)
	for _, key := range []string{"name", "iterations", "ns_per_op", "bytes_per_op", "allocs_per_op"} {
		if _, ok := first[key]; !ok {
			t.Errorf("benchmark key %q missing", key)
		}
	}

	if _, err := Decode(strings.NewReader(`{"schema":"phasebeat-bench/v999"}`)); err == nil {
		t.Error("foreign schema must be rejected")
	}
	if _, err := Decode(strings.NewReader(`not json`)); err == nil {
		t.Error("malformed report must be rejected")
	}
}

// TestRegressionDetection exercises the gate against synthetic
// baselines: a ≥20% ns/op slowdown fails at the default tolerance, a
// smaller one passes, improvements always pass, and deleted benchmarks
// fail as missing.
func TestRegressionDetection(t *testing.T) {
	base := &Report{
		Schema: Schema,
		Env:    Environment{GoVersion: "go1.24.0", GOOS: "linux", GOARCH: "amd64", NumCPU: 8},
		Benchmarks: []Benchmark{
			{Name: "BenchmarkA-8", NsPerOp: 1000, BytesPerOp: 100, AllocsPerOp: 10},
			{Name: "BenchmarkB-8", NsPerOp: 2000, BytesPerOp: -1, AllocsPerOp: -1},
		},
	}
	clone := func(mut func(r *Report)) *Report {
		cp := *base
		cp.Benchmarks = append([]Benchmark(nil), base.Benchmarks...)
		mut(&cp)
		return &cp
	}

	cases := []struct {
		name   string
		cur    *Report
		wantOk bool
	}{
		{"identical", clone(func(*Report) {}), true},
		{"small slowdown passes", clone(func(r *Report) { r.Benchmarks[0].NsPerOp = 1150 }), true},
		{"injected 20%+ ns/op regression fails", clone(func(r *Report) { r.Benchmarks[0].NsPerOp = 1250 }), false},
		{"large improvement passes", clone(func(r *Report) { r.Benchmarks[0].NsPerOp = 200 }), true},
		{"alloc explosion fails", clone(func(r *Report) { r.Benchmarks[0].AllocsPerOp = 20 }), false},
		{"deleted benchmark fails", clone(func(r *Report) { r.Benchmarks = r.Benchmarks[:1] }), false},
		{"added benchmark passes", clone(func(r *Report) {
			r.Benchmarks = append(r.Benchmarks, Benchmark{Name: "BenchmarkC-8", NsPerOp: 5})
		}), true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cmp := Compare(base, tc.cur, ciTolerance)
			if cmp.Ok() != tc.wantOk {
				t.Fatalf("Ok() = %v, want %v (regressions %+v, missing %v)",
					cmp.Ok(), tc.wantOk, cmp.Regressions(), cmp.Missing)
			}
		})
	}

	// A metric growing from an exactly-zero baseline (a zero-alloc hot
	// path gaining an allocation) is always a regression.
	zeroBase := &Report{Schema: Schema, Benchmarks: []Benchmark{
		{Name: "BenchmarkZ-8", NsPerOp: 100, BytesPerOp: 0, AllocsPerOp: 0},
	}}
	zeroCur := &Report{Schema: Schema, Benchmarks: []Benchmark{
		{Name: "BenchmarkZ-8", NsPerOp: 100, BytesPerOp: 64, AllocsPerOp: 1},
	}}
	if cmp := Compare(zeroBase, zeroCur, ciTolerance); cmp.Ok() {
		t.Fatal("allocation over a zero baseline must fail")
	}
	if cmp := Compare(zeroBase, zeroBase, ciTolerance); !cmp.Ok() {
		t.Fatalf("zero-vs-zero must pass: %+v", cmp.Regressions())
	}

	// Disabled metric checks (negative tolerance) must not fire.
	cur := clone(func(r *Report) { r.Benchmarks[0].NsPerOp = 10000 })
	cmp := Compare(base, cur, Tolerance{NsPerOp: -1, BytesPerOp: 0.3, AllocsPerOp: 0.3})
	if !cmp.Ok() {
		t.Fatalf("ns/op check disabled but still failed: %+v", cmp.Regressions())
	}

	// Environment mismatch is surfaced but is not itself a failure.
	cur = clone(func(r *Report) { r.Env.NumCPU = 4 })
	if cmp := Compare(base, cur, ciTolerance); !cmp.EnvMismatch || !cmp.Ok() {
		t.Fatalf("env mismatch handling wrong: %+v", cmp)
	}
}

// TestStrictAllocGate pins the zero-tolerance allocs/op gate: benchmarks
// matching Tolerance.StrictAllocs fail on any allocs/op increase, however
// far inside the fractional tolerance, while non-matching benchmarks keep
// the fractional slack.
func TestStrictAllocGate(t *testing.T) {
	base := &Report{Schema: Schema, Benchmarks: []Benchmark{
		{Name: "BenchmarkColumnarIngest/transpose", NsPerOp: 1000, BytesPerOp: 0, AllocsPerOp: 10},
		{Name: "BenchmarkOther-8", NsPerOp: 1000, BytesPerOp: 0, AllocsPerOp: 10},
	}}
	cur := &Report{Schema: Schema, Benchmarks: []Benchmark{
		{Name: "BenchmarkColumnarIngest/transpose", NsPerOp: 1000, BytesPerOp: 0, AllocsPerOp: 11},
		{Name: "BenchmarkOther-8", NsPerOp: 1000, BytesPerOp: 0, AllocsPerOp: 11},
	}}

	tol := ciTolerance
	if cmp := Compare(base, cur, tol); !cmp.Ok() {
		t.Fatalf("10%% alloc growth within fractional tolerance must pass: %+v", cmp.Regressions())
	}

	tol.StrictAllocs = regexp.MustCompile("BenchmarkColumnarIngest")
	cmp := Compare(base, cur, tol)
	if cmp.Ok() {
		t.Fatal("strict-gated benchmark gained an alloc but passed")
	}
	regs := cmp.Regressions()
	if len(regs) != 1 || regs[0].Name != "BenchmarkColumnarIngest/transpose" || regs[0].Metric != "allocs/op" {
		t.Fatalf("strict gate flagged the wrong deltas: %+v", regs)
	}

	// Unchanged and improved allocs both pass under the strict gate.
	if cmp := Compare(base, base, tol); !cmp.Ok() {
		t.Fatalf("strict self-comparison must pass: %+v", cmp.Regressions())
	}
	better := &Report{Schema: Schema, Benchmarks: []Benchmark{
		{Name: "BenchmarkColumnarIngest/transpose", NsPerOp: 1000, BytesPerOp: 0, AllocsPerOp: 0},
		{Name: "BenchmarkOther-8", NsPerOp: 1000, BytesPerOp: 0, AllocsPerOp: 10},
	}}
	if cmp := Compare(base, better, tol); !cmp.Ok() {
		t.Fatalf("alloc improvement under strict gate must pass: %+v", cmp.Regressions())
	}
}
