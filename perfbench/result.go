package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// spec names one reported metric and its unit.
type spec struct{ name, unit string }

// endToEnd are the user-facing metrics every workload reports with -trace
// 0, in BENCHMARK.json order. Each is defined on every workload (see
// LEDGER.md): on batch-eval an "update" is one trace's estimate and the
// "session" is the Processor.
var endToEnd = []spec{
	{"setup_s", "s"},
	{"update_latency_p50_ms", "ms"},
	{"sessions_per_core", "sessions/core"},
	{"live_heap_per_session_kb", "kB"},
}

// stageNames are the nine pipeline stages, in order; the streaming Monitor
// reports its ring-engine extract/smooth/gate under the same names.
var stageNames = []string{
	"extract", "smooth", "gate", "envdetect", "segment",
	"downsample", "select", "dwt", "estimate",
}

// perLayer are the per-layer metrics every workload reports with -trace 1,
// in BENCHMARK.json order. A layer a workload does not exercise reports 0
// with n=0.
var perLayer = buildPerLayer()

func buildPerLayer() []spec {
	var out []spec
	// The streaming engine extracts the phase difference per packet at
	// ingest, outside any stage hook, so its strides start at smooth.
	for _, s := range stageNames[1:] {
		out = append(out, spec{"core.stage." + s + "_ms_p50", "ms"}, spec{"core.stage." + s + "_ms_p99", "ms"})
	}
	for _, s := range stageNames {
		out = append(out, spec{"core.batch.stage." + s + "_ms_p50", "ms"}, spec{"core.batch.stage." + s + "_ms_p99", "ms"})
	}
	return append(out,
		spec{"core.batch.process_ms_p50", "ms"},
		spec{"core.batch.traces_per_s", "1/s"},
		spec{"fleet.client_ingest_us_p50", "us"},
		spec{"fleet.client_ingest_us_p99", "us"},
		spec{"fleet.wire_bytes_per_packet", "B"},
		spec{"fleet.packet_loss_frac", "frac"},
		spec{"fleet.updates_replaced", "count"},
		spec{"otrace.frame_us_p50", "us"},
		spec{"otrace.frame_us_p99", "us"},
		spec{"otrace.mailbox_us_p50", "us"},
		spec{"otrace.mailbox_us_p99", "us"},
		spec{"otrace.queue_ms_p50", "ms"},
		spec{"otrace.queue_ms_p99", "ms"},
		spec{"otrace.compute_ms_p50", "ms"},
		spec{"otrace.compute_ms_p99", "ms"},
		spec{"otrace.deliver_us_p50", "us"},
		spec{"otrace.deliver_us_p99", "us"},
		spec{"otrace.pickup_ms_p50", "ms"},
		spec{"otrace.pickup_ms_p99", "ms"},
		spec{"store.append_packet_us_p50", "us"},
		spec{"store.append_packet_us_p99", "us"},
		spec{"store.append_update_us_p99", "us"},
		spec{"store.open_session_ms_p99", "ms"},
		spec{"store.close_session_ms_p99", "ms"},
		spec{"store.seals", "count"},
		spec{"store.bytes_per_packet", "B"},
		spec{"store.range_us_p50", "us"},
		spec{"store.range_us_p99", "us"},
		spec{"store.tier_hit_ratio", "frac"},
		spec{"store.blocks_read", "count"},
		spec{"arena.allocs", "count"},
		spec{"arena.reuses", "count"},
		spec{"arena.reuse_ratio", "frac"},
		spec{"go.gc_cpu_frac", "frac"},
		spec{"go.heap_peak_mb", "MB"},
		spec{"go.goroutines_peak", "count"},
		spec{"gen.lag_p99_ms", "ms"},
		spec{"gen.packets_sent", "count"},
		spec{"eval.breath_err_bpm_p50", "bpm"},
		spec{"eval.heart_err_bpm_p50", "bpm"},
		spec{"trace.overhead_frac", "frac"},
		spec{"trace.unexplained_frac", "frac"},
	)
}

// metric is one measured value with the number of samples behind it
// (n = 0 for a count, a ratio of counts, or a layer the workload skips).
type metric struct {
	value float64
	unit  string
	n     int
}

// result is one pass's report card.
type result struct {
	workload string
	// attempted and failed count the pass's operations: expected updates
	// (or traces) plus range queries.
	attempted, failed int
	// problems lists correctness-gate violations; any makes the run
	// incorrect.
	problems []string
	// invalid, when non-empty, says why the pass's load was not the load
	// it claims to be (the generator fell behind its schedule).
	invalid string
	metrics map[string]metric
	// info are figures printed for the reader but not part of either
	// BENCHMARK.json metric set.
	info []string
	// recon is the traced pass's reconciliation line.
	recon string
}

func newResult(workload string) *result {
	return &result{workload: workload, metrics: make(map[string]metric)}
}

func (r *result) set(name string, value float64, unit string, n int) {
	if math.IsNaN(value) || math.IsInf(value, 0) {
		r.problem("metric %s is not finite", name)
		value = 0
	}
	r.metrics[name] = metric{value: value, unit: unit, n: n}
}

// setDist records the p-quantile of d, in d's unit.
func (r *result) setDist(name string, d *dist, p float64, unit string) {
	r.set(name, d.q(p), unit, d.n())
}

func (r *result) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *result) infof(format string, args ...any) {
	r.info = append(r.info, fmt.Sprintf(format, args...))
}

// setOverhead fills trace.overhead_frac from the untraced pass of the same
// workload and seed.
func (r *result) setOverhead(untraced *result) {
	tp, up := r.metrics["update_latency_p50_ms"], untraced.metrics["update_latency_p50_ms"]
	if up.value > 0 {
		r.set("trace.overhead_frac", tp.value/up.value-1, "frac", tp.n)
	}
	r.infof("untraced pass: update_latency_p50_ms = %.4f ms (n=%d); traced pass: %.4f ms (n=%d)",
		up.value, up.n, tp.value, tp.n)
}

// print writes the human-readable report, then the JSON result line.
func (r *result) print(w io.Writer, traced bool) {
	set := endToEnd
	if traced {
		set = perLayer
	}
	fmt.Fprintf(w, "perfbench: %s: attempted %d, failed %d, fail_frac %.6f\n",
		r.workload, r.attempted, r.failed, r.failFrac())
	for _, line := range r.info {
		fmt.Fprintf(w, "  %s\n", line)
	}
	for _, s := range set {
		m := r.metrics[s.name]
		fmt.Fprintf(w, "  %-34s %14.6g %-13s n=%d\n", s.name, m.value, s.unit, m.n)
	}
	if r.recon != "" {
		fmt.Fprintf(w, "reconciliation: %s\n", r.recon)
	}
	if r.invalid != "" {
		fmt.Fprintf(w, "INVALID RUN: %s\n", r.invalid)
	}
	for _, p := range r.problems {
		fmt.Fprintf(w, "INCORRECT: %s\n", p)
	}

	type jm struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]jm `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, make(map[string]jm, len(set))}
	for _, s := range set {
		out.Metrics[s.name] = jm{r.metrics[s.name].value, s.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		// Every value was checked finite in set, so this cannot happen.
		panic(err)
	}
	fmt.Fprintln(w, string(b))
}

func (r *result) correct() bool { return len(r.problems) == 0 && r.attempted > 0 }

func (r *result) failFrac() float64 {
	if r.attempted == 0 {
		return 0
	}
	return float64(r.failed) / float64(r.attempted)
}

// setLatency fills update_latency_p50_ms and prints the run's tail: p95,
// p99, max and the highest percentile the sample supports.
func setLatency(r *result, lat *dist) {
	n := lat.n()
	r.setDist("update_latency_p50_ms", lat, 0.5, "ms")
	r.infof("update latency: p50 %.3f ms, p95 %.3f ms, p99 %.3f ms, max %.3f ms (n=%d; highest supported percentile p%.1f)",
		lat.q(0.5), lat.q(0.95), lat.q(0.99), lat.q(1), n, 100*highestSupported(n))
}
