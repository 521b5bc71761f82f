GO ?= go

# Minimum statement coverage for the pipeline package (internal/core),
# enforced by `make cover`. Raise it as coverage grows; never lower it
# to sneak a PR past the gate.
COVER_MIN_CORE ?= 80

# `make check` is the PR gate: vet, build, race-enabled tests, a
# one-iteration smoke pass over the performance benchmarks so a broken
# benchmark fails fast without paying full measurement time, a bounded
# run of the fleet daemon's self-test, the same run again with the trace
# store recording (append → seal → downsample → range-query round trip),
# an observability pass (spans + SLO burn + flight dump + /metrics
# scrape), the end-to-end benchmark module's vet and tests, and a gated
# coverage report over the internal packages.
.PHONY: check
check: vet build race bench-smoke daemon-smoke store-smoke obs-smoke perfbench cover

.PHONY: vet
vet:
	$(GO) vet ./...

.PHONY: build
build:
	$(GO) build ./...

.PHONY: test
test:
	$(GO) test ./...

.PHONY: race
race:
	$(GO) test -race ./...

# Statement coverage across every internal package, written to
# coverage.out (uploaded as a CI artifact) with a per-function summary
# in coverage-func.txt. internal/core — the tier the stage graph and
# estimator registry live in — is gated at $(COVER_MIN_CORE)%; the gate
# recomputes its package coverage from the merged profile (fields:
# "file:range numstmts hitcount").
.PHONY: cover
cover:
	$(GO) test -covermode=atomic -coverprofile=coverage.out ./internal/...
	$(GO) tool cover -func=coverage.out > coverage-func.txt
	@tail -n 1 coverage-func.txt
	@awk 'NR > 1 && $$1 ~ /internal\/core\// { total += $$2; if ($$3 > 0) covered += $$2 } \
	  END { pct = total ? 100 * covered / total : 0; \
	        printf "coverage gate: internal/core %.1f%% (min $(COVER_MIN_CORE)%%)\n", pct; \
	        exit (pct < $(COVER_MIN_CORE)) }' coverage.out

# One iteration of every tracked benchmark: catches benchmarks that
# panic or reject their own fixtures without paying measurement time.
.PHONY: bench-smoke
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkPipelineProcess$$|BenchmarkMonitorStride$$|BenchmarkRunningMedianStrided$$|BenchmarkHampel$$|BenchmarkExactSum$$|BenchmarkQuarantinePush$$|BenchmarkDWTDenoise$$|BenchmarkRootMUSIC$$|BenchmarkEstimateStage$$|BenchmarkColumnarIngest$$|BenchmarkFleetDensity$$|BenchmarkStoreAppend$$|BenchmarkStoreRangeQuery$$|BenchmarkSpanIngestOverhead$$' -benchtime 1x ./internal/core ./internal/dsp ./internal/music ./internal/arena ./internal/fleet ./internal/store ./internal/otrace

# A small, bounded run of the fleet daemon's in-process load harness:
# opens sessions over sharded arenas with mid-run churn, and exits
# non-zero if any session starves or churn recycles no arena slabs.
.PHONY: daemon-smoke
daemon-smoke:
	$(GO) run ./cmd/phasebeatd -selftest -sessions 64 -seconds 12 -window 4 -stride 1 -churn 0.25

# The daemon self-test with the tiered trace store recording every
# session: exercises the full append → block-seal → downsample →
# range-query round trip and exits non-zero unless the tier query was
# answered without decoding a sealed block.
.PHONY: store-smoke
store-smoke:
	dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
	$(GO) run ./cmd/phasebeatd -selftest -sessions 8 -seconds 12 -window 4 -stride 1 -churn 0.25 \
	  -store-dir "$$dir/store" -store-block-seconds 4

# The daemon self-test with end-to-end latency spans and an unmeetable
# SLO target: every update breaches, the fast burn rate crosses 1, and
# the run must retain spans, write exactly one slo-burn flight dump, and
# serve the Prometheus exposition at /metrics — the whole observability
# path in one bounded run.
.PHONY: obs-smoke
obs-smoke:
	dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
	$(GO) run ./cmd/phasebeatd -selftest -sessions 8 -seconds 12 -window 4 -stride 1 -churn 0.25 \
	  -slo-target-ms 0.001 -span-sample 4 -flight-dir "$$dir/flight" -metrics-addr 127.0.0.1:0

# The end-to-end benchmark harness is a separate module, so `go build
# ./...` never compiles it: vet and test it here, or a change to an API
# it uses (core.Health, Update, fleet) would break the benchmark unseen.
.PHONY: perfbench
perfbench:
	cd perfbench && $(GO) vet ./... && $(GO) test .

# Non-test Go lines per package (the root package, internal/*, cmd/*)
# and their total: the line delta every simplicity change reports. Run it
# before and after a change; not part of `make check`.
.PHONY: loc
loc:
	@for d in . internal/* cmd/*; do \
	  printf '%-20s %6d\n' "$$d" $$(cat $$(ls $$d/*.go | grep -v _test.go) | wc -l); \
	done | awk '{ print; total += $$2 } END { printf "%-20s %6d\n", "total", total }'

# The columnar memory-layout benchmarks on their own, with allocation
# stats — the report CI uploads as the columnar-bench artifact.
.PHONY: bench-columnar
bench-columnar:
	$(GO) run ./cmd/benchreport -bench 'BenchmarkColumnarIngest$$|BenchmarkMonitorStride$$|BenchmarkPipelineProcess$$' -packages './internal/arena ./internal/core' -benchtime 300ms -count 3 -out BENCH_columnar.json

# Full benchmark run (slow): every package's benchmarks at default time.
.PHONY: bench
bench:
	$(GO) test -run '^$$' -bench . ./...

# Machine-readable benchmark report (BENCH_<date>.json) via
# cmd/benchreport; see that command's doc comment for the format.
.PHONY: bench-report
bench-report:
	$(GO) run ./cmd/benchreport -benchtime 300ms -count 3

# The CI regression gate: fresh measurement compared against the
# committed baseline, nonzero exit on any metric past tolerance.
.PHONY: bench-compare
bench-compare:
	$(GO) run ./cmd/benchreport -benchtime 300ms -count 3 -out BENCH_ci.json -compare bench/baseline.json

# Refresh the committed baseline (run on the reference machine after an
# intentional performance change, and commit the result). Five runs per
# benchmark: the report keeps the fastest and records the spread.
.PHONY: bench-baseline
bench-baseline:
	$(GO) run ./cmd/benchreport -benchtime 300ms -count 5 -out BENCH_ci.json -compare bench/baseline.json -update
