package main

import (
	"runtime"

	"phasebeat/internal/csisim"
)

// ingestConns is the ingest connection count of the fleet workloads: one
// per CPU, at most two — load comes from one process and must not need
// more connections than there are cores to serve them.
var ingestConns = min(2, runtime.NumCPU())

// workloads are the named benchmark configurations; LEDGER.md records why
// each was chosen and which metrics it should move.
var workloads = map[string]workload{
	"paper-rate": {"paper-rate", func(o runOpts) (*result, error) {
		return runFleet(paperRate, o)
	}},
	"fanin-archive": {"fanin-archive", func(o runOpts) (*result, error) {
		return runFleet(faninArchive, o)
	}},
	"batch-eval": {"batch-eval", func(o runOpts) (*result, error) {
		return runBatch(batchEval, o)
	}},
}

// paperRate is the paper's operating point (core.DefaultMonitorConfig:
// 400 Hz, 3×30 CSI, 60 s window, 5 s stride), open loop over TCP.
var paperRate = fleetShape{
	name:            "paper-rate",
	rate:            400,
	subcarriers:     30,
	window:          60,
	stride:          5,
	sessions:        16,
	scenes:          4,
	twoPersonScenes: 1,
	twoPersonEvery:  4,
	kinds:           []csisim.ScenarioKind{csisim.ScenarioLaboratory},
	conns:           ingestConns,
	breathBound:     3,
	lagBound:        0.1,
}

// faninArchive is the fleet harness's shape (30 Hz, 3×16 CSI, 8 s window,
// 2 s stride) at 128 sessions, archived into the tiered store, with range
// queries and session churn running beside the writes.
var faninArchive = fleetShape{
	name:            "fanin-archive",
	rate:            30,
	subcarriers:     16,
	window:          8,
	stride:          2,
	sessions:        128,
	scenes:          4,
	twoPersonScenes: 0,
	kinds:           []csisim.ScenarioKind{csisim.ScenarioLaboratory},
	conns:           ingestConns,
	store:           true,
	blockSeconds:    4,
	queriesPerSec:   20,
	churnPerSec:     0.01,
	breathBound:     6,
	lagBound:        0.1,
}

// batchEval is the paper's evaluation path: Processor.Process over whole
// 60 s, 400 Hz traces, closed loop, one caller on the serial path.
var batchEval = batchShape{
	name:      "batch-eval",
	traces:    6,
	twoPerson: 2,
	rate:      400,
	seconds:   60,
	kinds: []csisim.ScenarioKind{
		csisim.ScenarioLaboratory, csisim.ScenarioCorridor, csisim.ScenarioThroughWall,
	},
	breathBound: 3,
}
