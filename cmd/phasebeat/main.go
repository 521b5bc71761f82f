// Command phasebeat runs the PhaseBeat vital-sign pipeline over a CSI
// trace file (see cmd/csigen) or a freshly simulated scene, and prints the
// breathing and heart estimates together with the pipeline's intermediate
// diagnostics.
//
// Usage:
//
//	phasebeat -in trace.pbtr [-persons 1] [-verbose] [-estimator peaks] [-stage-timings]
//	phasebeat -simulate [-scenario lab] [-duration 60] [-seed 1] [-persons 1]
//	phasebeat -watch 120 -fault-nan 0.05 -explain -flight-dir ./flight -log warn
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"strings"

	"phasebeat"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "phasebeat:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("phasebeat", flag.ContinueOnError)
	in := fs.String("in", "", "input trace file")
	simulate := fs.Bool("simulate", false, "simulate a scene instead of reading a trace")
	scenario := fs.String("scenario", "lab", "simulated scenario: lab, wall or corridor")
	distance := fs.Float64("distance", 3, "simulated Tx-Rx distance (m)")
	duration := fs.Float64("duration", 60, "simulated capture length (s)")
	directional := fs.Bool("directional", false, "simulated directional Tx antenna")
	seed := fs.Int64("seed", 1, "simulation seed")
	persons := fs.Int("persons", 1, "monitored person count")
	verbose := fs.Bool("verbose", false, "print pipeline diagnostics")
	watch := fs.Float64("watch", 0, "realtime mode: stream a simulated scene for this many seconds, printing periodic estimates")
	replayFrom := fs.String("replay-from", "", "watch mode: replay a stored session from a phasebeatd -store-dir archive through the Monitor instead of simulating")
	replaySession := fs.String("replay-session", "", "replay mode: session key to replay (default: the archive's only session)")
	faultLoss := fs.Float64("fault-loss", 0, "watch mode: per-packet probability of a ~1s packet-loss burst")
	faultReorder := fs.Float64("fault-reorder", 0, "watch mode: per-packet probability of delivering packets out of order")
	faultNaN := fs.Float64("fault-nan", 0, "watch mode: per-packet probability of a NaN-corrupted CSI cell")
	estimator := fs.String("estimator", "", "breathing estimator backend: "+
		strings.Join(phasebeat.BreathingEstimators(), ", ")+" (empty = person-count dispatch)")
	stageTimings := fs.Bool("stage-timings", false, "print per-stage pipeline durations")
	metricsAddr := fs.String("metrics-addr", "", "serve runtime metrics (JSON at /debug/metrics, pprof at /debug/pprof/) on this address, e.g. :9090")
	explainTrace := fs.Bool("explain", false, "record per-stage explain traces and print the last one as JSON at exit")
	flightDir := fs.String("flight-dir", "", "write flight-recorder dumps into this directory when an anomaly trigger fires")
	flightJump := fs.Float64("flight-jump-bpm", 0, "flight recorder (with -flight-dir): estimate-jump trigger threshold in BPM (0 = default 10, negative disables)")
	logLevel := fs.String("log", "", "structured event logging to stderr at this level: debug, info, warn or error (empty = silent)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Refuse flags that would be accepted but ignored.
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	for _, dep := range []struct {
		flag, needs string
		ok          bool
	}{
		{"flight-jump-bpm", "flight-dir", *flightDir != ""},
		{"fault-loss", "watch", *watch > 0},
		{"fault-reorder", "watch", *watch > 0},
		{"fault-nan", "watch", *watch > 0},
		{"replay-session", "replay-from", *replayFrom != ""},
	} {
		if set[dep.flag] && !dep.ok {
			return fmt.Errorf("-%s has no effect without -%s", dep.flag, dep.needs)
		}
	}

	var timings *phasebeat.TimingObserver
	if *stageTimings {
		timings = phasebeat.NewTimingObserver()
	}

	logger, err := newLogger(*logLevel)
	if err != nil {
		return err
	}

	// Like the metrics registry, the explain recorder is opt-in: without
	// -explain or -flight-dir it stays nil and no evidence is computed.
	var rec *phasebeat.ExplainRecorder
	if *explainTrace || *flightDir != "" {
		rec, err = phasebeat.NewExplainRecorder(phasebeat.ExplainConfig{
			Dir:     *flightDir,
			JumpBPM: *flightJump,
			Logger:  logger,
		})
		if err != nil {
			return err
		}
	}

	// The observability endpoint is opt-in: without -metrics-addr the
	// registry stays nil and every metrics hook downstream is a no-op.
	var reg *phasebeat.MetricsRegistry
	if *metricsAddr != "" {
		reg = phasebeat.NewMetricsRegistry()
		phasebeat.RegisterTraceMetrics(reg)
		ln, err := serveMetrics(*metricsAddr, reg, rec)
		if err != nil {
			return err
		}
		defer ln.Close()
		fmt.Fprintf(os.Stderr, "phasebeat: metrics at http://%s/debug/metrics\n", ln.Addr())
	}

	if *replayFrom != "" {
		return replayStored(*replayFrom, *replaySession, reg, logger)
	}

	if *watch > 0 {
		kind, kerr := scenarioKind(*scenario)
		if kerr != nil {
			return kerr
		}
		return watchScene(phasebeat.Scenario{
			Kind:          kind,
			TxRxDistanceM: *distance,
			NumPersons:    *persons,
			DirectionalTx: *directional,
			Seed:          *seed,
		}, *watch, *persons, *estimator, timings, reg, rec, logger, *explainTrace, phasebeat.FaultPlan{
			LossProb:      *faultLoss,
			LossBurstMean: 400, // ~1 s at the default 400 Hz rate
			ReorderProb:   *faultReorder,
			NaNProb:       *faultNaN,
		})
	}

	var (
		tr    *phasebeat.Trace
		truth []phasebeat.VitalTruth
	)
	switch {
	case *simulate:
		kind, kerr := scenarioKind(*scenario)
		if kerr != nil {
			return kerr
		}
		tr, truth, err = phasebeat.Simulate(phasebeat.Scenario{
			Kind:          kind,
			TxRxDistanceM: *distance,
			NumPersons:    *persons,
			DirectionalTx: *directional,
			Seed:          *seed,
		}, *duration)
		if err != nil {
			return err
		}
	case *in != "":
		tr, err = readTraceFile(*in)
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("either -in or -simulate is required")
	}

	cfg := phasebeat.ConfigForRate(tr.SampleRate)
	cfg.Estimator = *estimator
	// Observer and Sink are interfaces: assign only live values, since a
	// typed nil would defeat the pipeline's enabled check.
	if timings != nil {
		cfg.Observer = timings
		defer func() { fmt.Print(timings.Table()) }()
	}
	if rec != nil {
		cfg.Sink = rec
		if *explainTrace {
			defer printExplain(rec)
		}
	}
	res, err := phasebeat.ProcessTrace(tr,
		phasebeat.WithConfig(cfg), phasebeat.WithPersons(*persons))
	if err != nil {
		return err
	}

	fmt.Printf("trace: %d packets, %.1f s at %.0f Hz\n", tr.Len(), tr.Duration(), tr.SampleRate)
	if res.Breathing != nil {
		fmt.Printf("breathing rate: %.2f bpm (method: %s)\n", res.Breathing.RateBPM, res.Breathing.Method)
	}
	if res.MultiPerson != nil {
		fmt.Printf("breathing rates (%s):", res.MultiPerson.Method)
		for _, r := range res.MultiPerson.RatesBPM {
			fmt.Printf(" %.2f", r)
		}
		fmt.Println(" bpm")
	}
	if res.Heart != nil {
		fmt.Printf("heart rate: %.2f bpm (method: %s)\n", res.Heart.RateBPM, res.Heart.Method)
	} else {
		fmt.Println("heart rate: not detectable (weak heart band)")
	}
	for i, t := range truth {
		fmt.Printf("ground truth person %d: breathing %.2f bpm, heart %.2f bpm\n",
			i+1, t.BreathingBPM, t.HeartBPM)
	}

	if *verbose {
		fmt.Printf("\nstationary segment: samples [%d, %d)\n",
			res.StationarySegment.StartSample, res.StationarySegment.EndSample)
		fmt.Printf("selected subcarrier: %d (top-%d by MAD: %v)\n",
			res.Selection.Selected+1, len(res.Selection.TopK), oneBased(res.Selection.TopK))
		fmt.Printf("estimation rate: %.1f Hz, calibrated samples: %d\n",
			res.EstimationRate, len(res.Calibrated[0]))
		states := map[string]int{}
		for _, s := range res.Environment.States {
			states[s.String()]++
		}
		fmt.Printf("environment windows: %v\n", states)
	}
	return nil
}

// newLogger builds the stderr slog logger for -log; an empty level
// returns nil, which keeps every logging hook silent.
func newLogger(level string) (*slog.Logger, error) {
	if level == "" {
		return nil, nil
	}
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("bad -log level %q (debug, info, warn, error)", level)
	}
	return slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: lvl})), nil
}

// printExplain prints the recorder's most recent trace as indented JSON —
// the -explain output.
func printExplain(rec *phasebeat.ExplainRecorder) {
	tr := rec.Last()
	if tr == nil {
		fmt.Fprintln(os.Stderr, "phasebeat: no explain trace recorded")
		return
	}
	data, err := json.MarshalIndent(tr, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "phasebeat: explain trace:", err)
		return
	}
	fmt.Printf("\nexplain trace (seq %d):\n%s\n", tr.Seq, data)
}

func oneBased(idx []int) []int {
	out := make([]int, len(idx))
	for i, v := range idx {
		out[i] = v + 1
	}
	return out
}

func scenarioKind(name string) (phasebeat.ScenarioKind, error) {
	switch name {
	case "lab":
		return phasebeat.ScenarioLaboratory, nil
	case "wall":
		return phasebeat.ScenarioThroughWall, nil
	case "corridor":
		return phasebeat.ScenarioCorridor, nil
	default:
		return 0, fmt.Errorf("unknown scenario %q (lab, wall, corridor)", name)
	}
}

// readTraceFile loads a trace in any supported format (binary, JSON or
// gzip), sniffing the leading bytes.
func readTraceFile(path string) (*phasebeat.Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return phasebeat.ReadTraceAuto(f)
}

// replayStored replays one session out of a phasebeatd -store-dir
// archive through a fresh Monitor — the postmortem path. The Monitor is
// rebuilt from the stored session metadata (sample rate, shape, window,
// stride), so the replayed estimates reproduce what the daemon computed
// live, minus any packets it shed under load.
func replayStored(dir, session string, reg *phasebeat.MetricsRegistry, logger *slog.Logger) error {
	st, err := phasebeat.OpenTraceStore(phasebeat.TraceStoreConfig{
		Dir:      dir,
		ReadOnly: true,
		Metrics:  reg,
		Logger:   logger,
	})
	if err != nil {
		return err
	}
	defer st.Close()
	infos := st.Sessions()
	if session == "" {
		switch len(infos) {
		case 0:
			return fmt.Errorf("replay: no sessions in %s", dir)
		case 1:
			session = infos[0].Key
		default:
			keys := make([]string, len(infos))
			for i, in := range infos {
				keys[i] = in.Key
			}
			return fmt.Errorf("replay: %d sessions in %s, pick one with -replay-session: %s",
				len(infos), dir, strings.Join(keys, ", "))
		}
	}
	meta, err := st.Meta(session)
	if err != nil {
		return err
	}
	fmt.Printf("replaying %q: %.0f Hz, %d×%d CSI, window %.0fs, stride %.0fs\n",
		session, meta.SampleRate, meta.NumAntennas, meta.NumSubcarriers,
		meta.WindowSeconds, meta.StrideSeconds)
	base := phasebeat.DefaultMonitorConfig()
	base.Metrics = reg
	base.Logger = logger
	last, err := st.ReplayThroughMonitor(session, base)
	if err != nil {
		return err
	}
	if b := last.Result.Breathing; b != nil {
		fmt.Printf("[%7.1fs] breathing %.2f bpm (method: %s)\n", last.Time, b.RateBPM, b.Method)
	}
	if h := last.Result.Heart; h != nil {
		fmt.Printf("[%7.1fs] heart %.2f bpm (method: %s)\n", last.Time, h.RateBPM, h.Method)
	}
	if mp := last.Result.MultiPerson; mp != nil {
		fmt.Printf("[%7.1fs] breathing rates (%s): %v bpm\n", last.Time, mp.Method, mp.RatesBPM)
	}
	if stored, ok := st.LastBPM(session); ok && last.Result.Breathing != nil {
		fmt.Printf("stored live estimate: %.2f bpm (replay delta %+.3f)\n",
			stored, last.Result.Breathing.RateBPM-stored)
	}
	return nil
}

// watchScene streams a simulated scene through a Monitor, printing each
// periodic estimate — the realtime deployment shape. A non-zero fault
// plan routes the stream through the fault-injection harness; the ingest
// health summary annotates each degraded estimate and is printed in full
// at the end. A wired explain recorder is the Monitor's stride sink,
// dumping flight bundles when its triggers fire.
func watchScene(sc phasebeat.Scenario, seconds float64, persons int, estimator string, timings *phasebeat.TimingObserver, reg *phasebeat.MetricsRegistry, rec *phasebeat.ExplainRecorder, logger *slog.Logger, printTrace bool, faults phasebeat.FaultPlan) error {
	sim, err := phasebeat.NewSimulator(sc)
	if err != nil {
		return err
	}
	var src phasebeat.PacketSource = sim
	if faults.LossProb > 0 || faults.ReorderProb > 0 || faults.NaNProb > 0 {
		src, err = phasebeat.NewFaultInjector(sim, faults, sc.Seed)
		if err != nil {
			return err
		}
	}
	cfg := phasebeat.DefaultMonitorConfig()
	cfg.Persons = persons
	cfg.WindowSeconds = 40
	cfg.UpdateEverySeconds = 10
	cfg.Pipeline.Estimator = estimator
	// NewMonitor feeds cfg.Metrics from each stride's record itself.
	// Observer and Sink are interfaces, so only live values are assigned
	// (a typed nil would defeat the enabled check).
	cfg.Metrics = reg
	cfg.Logger = logger
	if rec != nil {
		cfg.Pipeline.Sink = rec
		if printTrace {
			defer printExplain(rec)
		}
	}
	if timings != nil {
		cfg.Pipeline.Observer = timings
		defer func() { fmt.Print(timings.Table()) }()
	}
	m, err := phasebeat.NewMonitor(cfg)
	if err != nil {
		return err
	}
	defer m.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		var last phasebeat.Health
		for u := range m.Updates() {
			if u.Err != nil {
				fmt.Printf("[t=%5.0fs] no vital signs: %v\n", u.Time, u.Err)
				last = u.Health
				continue
			}
			fmt.Printf("[t=%5.0fs]", u.Time)
			if u.Result.Breathing != nil {
				fmt.Printf(" breathing %.1f bpm", u.Result.Breathing.RateBPM)
			}
			if u.Result.MultiPerson != nil {
				fmt.Printf(" breathing %v bpm", u.Result.MultiPerson.RatesBPM)
			}
			if u.Result.Heart != nil {
				fmt.Printf(" heart %.1f bpm", u.Result.Heart.RateBPM)
			}
			// Annotate estimates produced while the ingest path degraded
			// since the previous update, so they can be read with suspicion.
			if delta := u.Health.Sub(last); delta.Degraded() {
				fmt.Printf("  [degraded: %s]", delta)
			}
			last = u.Health
			fmt.Println()
		}
	}()
	total := int(seconds * cfg.SampleRate)
	for i := 0; i < total; i++ {
		if !m.Ingest(src.NextPacket()) {
			break
		}
	}
	m.Close()
	<-done
	h := m.Health()
	if h.Degraded() {
		fmt.Printf("ingest health: %s (accepted %d)\n", h, h.Accepted)
	}
	for i, t := range sim.Truth() {
		fmt.Printf("ground truth person %d: breathing %.2f bpm, heart %.2f bpm\n",
			i+1, t.BreathingBPM, t.HeartBPM)
	}
	return nil
}
