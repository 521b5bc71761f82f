// Command phasebeatd is the multi-session PhaseBeat fleet daemon: it
// multiplexes thousands of concurrent Monitor sessions in one process,
// sharded by session key, with per-shard arenas recycling window storage
// across session churn. Clients speak a framed binary protocol (see
// internal/fleet) over TCP or a unix socket: open a session, stream CSI
// packets, long-poll vital-sign updates, close.
//
// Usage:
//
//	phasebeatd -listen :7070 [-unix /run/phasebeat.sock] [-shards 8] [-metrics-addr :9090]
//	phasebeatd -selftest [-sessions 1000] [-rate 30] [-seconds 16] [-churn 0.25]
//
// The selftest runs the csisim-driven load harness in-process — S
// sessions × R Hz of synthetic CSI with mid-run churn — prints the
// density report (sessions/core), and exits non-zero if any session
// starves or churn fails to recycle arena slabs.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"phasebeat/internal/core"
	"phasebeat/internal/explain"
	"phasebeat/internal/fleet"
	"phasebeat/internal/metrics"
	"phasebeat/internal/otrace"
	"phasebeat/internal/store"
	"phasebeat/internal/trace"
)

func main() {
	shutdown := make(chan os.Signal, 1)
	signal.Notify(shutdown, os.Interrupt, syscall.SIGTERM)
	stop := make(chan struct{})
	go func() {
		<-shutdown
		close(stop)
	}()
	if err := run(os.Args[1:], os.Stdout, stop); err != nil {
		fmt.Fprintln(os.Stderr, "phasebeatd:", err)
		os.Exit(1)
	}
}

// run is the testable entry point: stop ends a serving daemon cleanly.
func run(args []string, stdout io.Writer, stop <-chan struct{}) error {
	fs := flag.NewFlagSet("phasebeatd", flag.ContinueOnError)
	listen := fs.String("listen", "", "TCP listen address for the frame API, e.g. :7070")
	unixSock := fs.String("unix", "", "unix socket path for the frame API")
	shards := fs.Int("shards", 0, "session shard count (0 = GOMAXPROCS); one goroutine and one arena per shard")
	mailbox := fs.Int("mailbox", 256, "per-shard ingest mailbox depth in packets (full mailbox blocks producers)")
	sessionBuffer := fs.Int("session-buffer", 64, "per-session ingest buffer in packets before drop-on-backlog shedding")
	metricsAddr := fs.String("metrics-addr", "", "serve fleet metrics (JSON at /debug/metrics, pprof at /debug/pprof/) on this address")
	logLevel := fs.String("log", "", "structured logging to stderr at this level: debug, info, warn or error (empty = silent)")
	storeDir := fs.String("store-dir", "", "archive every session into a tiered trace store rooted here (range queries at /store/* on -metrics-addr)")
	storeMaxBytes := fs.Int64("store-max-bytes", 0, "store: evict oldest sealed blocks past this total size in bytes (0 = unlimited)")
	storeBlockSeconds := fs.Float64("store-block-seconds", 60, "store: trace seconds per sealed block")
	storeMaxAge := fs.Duration("store-max-age", 0, "store: evict sealed blocks older than this (0 = unlimited)")
	sloTargetMS := fs.Float64("slo-target-ms", 0, "enable end-to-end latency spans with this ingest→update SLO target in ms (0 = tracing off)")
	sloObjective := fs.Float64("slo-objective", 0.999, "fraction of updates that must meet -slo-target-ms")
	sloFastWindow := fs.Duration("slo-fast-window", 5*time.Minute, "SLO fast (paging) burn-rate window")
	sloSlowWindow := fs.Duration("slo-slow-window", time.Hour, "SLO slow (trend) burn-rate window")
	spanSample := fs.Int("span-sample", 16, "retain one in every N spans (plus every slow span); negative = slow spans only")
	spanSlowMS := fs.Float64("span-slow-ms", 250, "retain every span at least this slow, in ms; negative = head sampling only")
	spanRing := fs.Int("spans", 256, "retained-span ring capacity served at /debug/spans")
	flightDir := fs.String("flight-dir", "", "write an slo-burn flight dump (retained spans + burn report) into this directory when the SLO burns")

	selftest := fs.Bool("selftest", false, "run the in-process load harness and exit")
	sessions := fs.Int("sessions", 1000, "selftest: concurrent session count")
	rate := fs.Float64("rate", 30, "selftest: per-session packet rate (Hz)")
	seconds := fs.Float64("seconds", 16, "selftest: virtual stream duration per session (s)")
	window := fs.Float64("window", 8, "selftest: session analysis window (s)")
	stride := fs.Float64("stride", 2, "selftest: session update stride (s)")
	subcarriers := fs.Int("subcarriers", 16, "selftest: subcarriers per packet (≤ 30)")
	churn := fs.Float64("churn", 0.25, "selftest: fraction of sessions closed and replaced mid-run (negative = none)")
	feeders := fs.Int("feeders", 0, "selftest: producer goroutines (0 = GOMAXPROCS)")
	seed := fs.Int64("seed", 1, "selftest: simulation seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	// The tracer and the flight recorder exist only with an SLO target:
	// refuse their flags without one instead of ignoring them.
	if *sloTargetMS <= 0 {
		var stray string
		fs.Visit(func(f *flag.Flag) {
			switch {
			case stray != "" || f.Name == "slo-target-ms":
			case f.Name == "flight-dir", f.Name == "spans",
				strings.HasPrefix(f.Name, "span-"), strings.HasPrefix(f.Name, "slo-"):
				stray = f.Name
			}
		})
		if stray != "" {
			return fmt.Errorf("-%s has no effect without -slo-target-ms", stray)
		}
	}

	logger, err := buildLogger(*logLevel)
	if err != nil {
		return err
	}
	reg := metrics.NewRegistry()

	// The store opens before the fleet and closes after it (defers run
	// LIFO), so every session's final CloseSession lands on a live store.
	var st *store.Store
	if *storeDir != "" {
		st, err = store.Open(store.Config{
			Dir:          *storeDir,
			BlockSeconds: *storeBlockSeconds,
			MaxBytes:     *storeMaxBytes,
			MaxAge:       *storeMaxAge,
			Metrics:      reg,
			Logger:       logger,
		})
		if err != nil {
			return err
		}
		defer st.Close()
	}

	// Latency span tracing + SLO burn tracking: -slo-target-ms is the
	// master switch; a nil tracer costs the fleet nothing (DESIGN §15).
	var tracer *otrace.Tracer
	if *sloTargetMS > 0 {
		var flight *explain.Recorder
		if *flightDir != "" {
			flight, err = explain.NewRecorder(explain.Config{Dir: *flightDir, Logger: logger})
			if err != nil {
				return err
			}
		}
		sloCfg := &otrace.SLOConfig{
			Target:     time.Duration(*sloTargetMS * float64(time.Millisecond)),
			Objective:  *sloObjective,
			FastWindow: *sloFastWindow,
			SlowWindow: *sloSlowWindow,
		}
		sloCfg.OnBurn = func(rep otrace.BurnReport) {
			if logger != nil {
				logger.Warn("slo burn",
					"fast_burn", rep.FastBurn, "slow_burn", rep.SlowBurn,
					"breaches", rep.Breaches, "updates", rep.Updates)
			}
			if flight == nil {
				return
			}
			note, _ := json.Marshal(rep)
			if _, err := flight.DumpSpans(explain.TriggerSLOBurn, tracer.Spans(), string(note)); err != nil && logger != nil {
				logger.Error("slo-burn flight dump failed", "err", err)
			}
		}
		tracer, err = otrace.New(otrace.Config{
			SampleEvery:   *spanSample,
			SlowThreshold: time.Duration(*spanSlowMS * float64(time.Millisecond)),
			RingCapacity:  *spanRing,
			SLO:           sloCfg,
			Metrics:       reg,
		})
		if err != nil {
			return err
		}
	}

	var metricsLis net.Listener
	if *metricsAddr != "" {
		metricsLis, err = serveMetrics(*metricsAddr, reg, st, tracer)
		if err != nil {
			return err
		}
		defer metricsLis.Close()
		fmt.Fprintf(stdout, "phasebeatd: metrics on http://%s/debug/metrics\n", metricsLis.Addr())
	}

	if *selftest {
		cfg := fleet.HarnessConfig{
			Sessions:      *sessions,
			Shards:        *shards,
			Feeders:       *feeders,
			SampleRate:    *rate,
			Seconds:       *seconds,
			WindowSeconds: *window,
			StrideSeconds: *stride,
			Subcarriers:   *subcarriers,
			ChurnFraction: *churn,
			Seed:          *seed,
			Metrics:       reg,
		}
		if st != nil {
			cfg.Recorder = storeRecorder{st}
		}
		cfg.Tracer = tracer
		if err := runSelftest(stdout, reg, cfg); err != nil {
			return err
		}
		if st != nil {
			if err := verifyStore(stdout, st, reg, *storeBlockSeconds < *seconds); err != nil {
				return err
			}
		}
		if tracer != nil {
			return verifySLO(stdout, tracer, *flightDir, metricsLis)
		}
		return nil
	}

	if *listen == "" && *unixSock == "" {
		return errors.New("nothing to do: need -listen or -unix (or -selftest)")
	}

	var rec fleet.Recorder
	if st != nil {
		rec = storeRecorder{st}
		if *storeMaxAge > 0 {
			// Age retention also has to fire for idle sessions that seal
			// nothing; sweep on a timer for the life of the daemon.
			go func() {
				tick := time.NewTicker(time.Minute)
				defer tick.Stop()
				for {
					select {
					case <-stop:
						return
					case <-tick.C:
						st.Sweep()
					}
				}
			}()
		}
	}

	mgr, err := fleet.New(fleet.Config{
		Shards:        *shards,
		MailboxDepth:  *mailbox,
		SessionBuffer: *sessionBuffer,
		Metrics:       reg,
		Logger:        logger,
		Recorder:      rec,
		Tracer:        tracer,
	})
	if err != nil {
		return err
	}
	defer mgr.Close()

	srv := fleet.NewServer(mgr, logger)
	var (
		wg       sync.WaitGroup
		serveMu  sync.Mutex
		serveErr error
	)
	serveOn := func(network, addr string) error {
		lis, err := net.Listen(network, addr)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "phasebeatd: serving %s on %s\n", network, lis.Addr())
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := srv.Serve(lis); err != nil {
				serveMu.Lock()
				if serveErr == nil {
					serveErr = err
				}
				serveMu.Unlock()
			}
		}()
		return nil
	}
	if *listen != "" {
		if err := serveOn("tcp", *listen); err != nil {
			return err
		}
	}
	if *unixSock != "" {
		if err := serveOn("unix", *unixSock); err != nil {
			srv.Shutdown()
			wg.Wait()
			return err
		}
		defer os.Remove(*unixSock)
	}

	<-stop
	fmt.Fprintln(stdout, "phasebeatd: shutting down")
	srv.Shutdown()
	wg.Wait()
	serveMu.Lock()
	defer serveMu.Unlock()
	return serveErr
}

// runSelftest drives the load harness and turns its report card into an
// exit status: every concurrent session must have delivered at least one
// update, and when churn ran, the shard arenas must show slab reuse.
func runSelftest(stdout io.Writer, reg *metrics.Registry, cfg fleet.HarnessConfig) error {
	res, err := fleet.RunHarness(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, res.String())
	if res.MinSessionUpdates == 0 {
		return fmt.Errorf("selftest: a session delivered no update (min %d over %d sessions)",
			res.MinSessionUpdates, res.Sessions)
	}
	if res.Updates < uint64(res.Sessions) {
		return fmt.Errorf("selftest: %d updates over %d sessions", res.Updates, res.Sessions)
	}
	if cfg.ChurnFraction > 0 && res.Arena.Reuses == 0 {
		return fmt.Errorf("selftest: churn recycled no arena slabs: %+v", res.Arena)
	}
	return nil
}

// storeRecorder adapts the tiered trace store to the fleet's Recorder
// hook, mapping the effective session configuration onto store metadata.
type storeRecorder struct {
	st *store.Store
}

func (r storeRecorder) OpenSession(key string, sc fleet.SessionConfig) error {
	return r.st.OpenSession(key, store.Meta{
		SampleRate:     sc.SampleRate,
		NumAntennas:    sc.NumAntennas,
		NumSubcarriers: sc.NumSubcarriers,
		WindowSeconds:  sc.WindowSeconds,
		StrideSeconds:  sc.UpdateEverySeconds,
		Persons:        sc.Persons,
	})
}

func (r storeRecorder) AppendPacket(key string, p trace.Packet) error {
	return r.st.AppendPacket(key, p)
}

func (r storeRecorder) AppendUpdate(key string, u core.Update) error {
	return r.st.AppendUpdate(key, u)
}

func (r storeRecorder) CloseSession(key string) error {
	return r.st.CloseSession(key)
}

// verifyStore is the selftest's store acceptance check: the harness run
// must have archived every stream, a full-range tier query must answer
// from downsample bins alone (no block reads), and when the block length
// fits inside the run, at least one block must have sealed.
func verifyStore(stdout io.Writer, st *store.Store, reg *metrics.Registry, expectSeals bool) error {
	stats := st.Stats()
	infos := st.Sessions()
	if len(infos) == 0 {
		return errors.New("selftest: store archived no sessions")
	}
	if expectSeals && stats.Seals == 0 {
		return fmt.Errorf("selftest: store sealed no blocks (%+v)", stats)
	}
	key := infos[0].Key
	tres, err := st.Range(key, 0, 0, "")
	if err != nil {
		return fmt.Errorf("selftest: store tier query: %w", err)
	}
	if len(tres.Wave) == 0 || tres.BlocksRead != 0 {
		return fmt.Errorf("selftest: tier query returned %d bins reading %d blocks",
			len(tres.Wave), tres.BlocksRead)
	}
	var tierHits uint64
	for _, d := range store.DefaultTierSeconds {
		tierHits += reg.Counter("store.tier.hits." + store.TierLabel(d)).Value()
	}
	if tierHits == 0 {
		return errors.New("selftest: tier query advanced no store.tier.hits counter")
	}
	rres, err := st.Range(key, 0, 0, store.RawTier)
	if err != nil {
		return fmt.Errorf("selftest: store raw query: %w", err)
	}
	if len(rres.Samples) == 0 {
		return errors.New("selftest: raw query returned no samples")
	}
	fmt.Fprintf(stdout,
		"store: %d sessions, %d blocks (%d sealed, %d evicted), %d bytes; "+
			"tier %s query: %d bins, 0 blocks read; raw query: %d samples, %d blocks read\n",
		stats.Sessions, stats.Blocks, stats.Seals, stats.Evictions, stats.Bytes,
		tres.Tier, len(tres.Wave), len(rres.Samples), rres.BlocksRead)
	return nil
}

// verifySLO is the selftest's observability acceptance check: the run
// must have produced spans, and when the configured target was breached
// hard enough to burn, the burn must be visible in the report and —
// with a flight directory — have produced exactly one cooldown-limited
// slo-burn dump. With a metrics listener up, the Prometheus exposition
// must carry the slo gauges and span histograms.
func verifySLO(stdout io.Writer, tracer *otrace.Tracer, flightDir string, lis net.Listener) error {
	rep, ok := tracer.SLOReport()
	if !ok {
		return errors.New("selftest: tracer has no SLO report")
	}
	if tracer.Observed() == 0 {
		return errors.New("selftest: tracer observed no spans")
	}
	if tracer.Retained() == 0 {
		return errors.New("selftest: tracer retained no spans")
	}
	fmt.Fprintf(stdout,
		"slo: target %.1fms objective %.4g — %d/%d updates breached, fast burn %.3g, slow burn %.3g; "+
			"spans: %d observed, %d retained\n",
		rep.TargetMS, rep.Objective, rep.Breaches, rep.Updates, rep.FastBurn, rep.SlowBurn,
		tracer.Observed(), tracer.Retained())
	if flightDir != "" && rep.FastBurn >= 1 && rep.SlowBurn >= 1 {
		dumps, err := filepath.Glob(filepath.Join(flightDir, "*"+explain.TriggerSLOBurn+"*.json"))
		if err != nil {
			return err
		}
		// The selftest is far shorter than the default 5m cooldown, so a
		// sustained burn must have dumped exactly once.
		if len(dumps) != 1 {
			return fmt.Errorf("selftest: %d slo-burn flight dumps, want exactly 1", len(dumps))
		}
		// The dump must carry at least the span that tipped the burn over
		// (forced retention), even when head sampling skipped it.
		data, err := os.ReadFile(dumps[0])
		if err != nil {
			return err
		}
		var dump struct {
			Spans []otrace.SpanRecord `json:"spans"`
		}
		if err := json.Unmarshal(data, &dump); err != nil {
			return fmt.Errorf("selftest: slo-burn dump unreadable: %w", err)
		}
		if len(dump.Spans) == 0 {
			return errors.New("selftest: slo-burn dump carries no spans")
		}
		fmt.Fprintf(stdout, "slo: burn flight dump at %s (%d spans)\n", dumps[0], len(dump.Spans))
	}
	if lis != nil {
		resp, err := http.Get("http://" + lis.Addr().String() + "/metrics")
		if err != nil {
			return fmt.Errorf("selftest: scrape /metrics: %w", err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			return fmt.Errorf("selftest: /metrics status %d err %v", resp.StatusCode, err)
		}
		for _, want := range []string{"fleet_slo_burn_fast", "fleet_span_total_seconds_bucket{le="} {
			if !strings.Contains(string(body), want) {
				return fmt.Errorf("selftest: /metrics exposition lacks %q", want)
			}
		}
	}
	return nil
}

// buildLogger mirrors cmd/phasebeat's -log flag: empty is silent.
func buildLogger(level string) (*slog.Logger, error) {
	if level == "" {
		return nil, nil
	}
	var l slog.Level
	switch level {
	case "debug":
		l = slog.LevelDebug
	case "info":
		l = slog.LevelInfo
	case "warn":
		l = slog.LevelWarn
	case "error":
		l = slog.LevelError
	default:
		return nil, fmt.Errorf("unknown log level %q", level)
	}
	return slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: l})), nil
}

// serveMetrics exposes the registry (JSON at /debug/metrics, Prometheus
// text at /metrics), pprof, latency spans at /debug/spans (404 when
// tracing is off), and — when a store is configured — the /store/*
// query API on addr, on its own goroutine for the life of the process.
func serveMetrics(addr string, reg *metrics.Registry, st *store.Store, tracer *otrace.Tracer) (net.Listener, error) {
	mux := http.NewServeMux()
	mux.Handle("/debug/metrics", reg)
	mux.Handle("/metrics", reg.PrometheusHandler())
	mux.Handle("/debug/spans", tracer)
	if st != nil {
		st.RegisterHTTP(mux)
	}
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("metrics listener: %w", err)
	}
	go func() {
		if err := http.Serve(ln, mux); err != nil && !errors.Is(err, net.ErrClosed) {
			fmt.Fprintln(os.Stderr, "phasebeatd: metrics server:", err)
		}
	}()
	return ln, nil
}
