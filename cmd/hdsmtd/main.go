// Command hdsmtd serves the hdSMT batch-simulation engine over HTTP:
// submit runs, evaluations or whole BEST/HEUR/WORST sweeps as async jobs,
// poll their progress, and fetch aggregated results. All jobs share one
// engine and one memoization store; with -journal, results also persist
// across restarts, and with -job-journal the job table itself is
// durable — a killed daemon restarts knowing every job it ever accepted.
//
//	hdsmtd -addr :8080 -workers 8 -journal /var/tmp/hdsmt-journal.jsonl
//
//	curl -s localhost:8080/jobs -d '{"kind":"sweep","configs":["M8","2M4+2M2"],"workloads":["2W7","4W6"],"budget":20000}'
//	curl -s localhost:8080/jobs/job-000001
//	curl -s localhost:8080/jobs/job-000001/result
//	curl -s localhost:8080/stats
//	curl -s localhost:8080/metrics
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"hdsmt/internal/engine"
	"hdsmt/internal/faultinject"
	"hdsmt/internal/obslog"
	"hdsmt/internal/server"
	"hdsmt/internal/sim"
	"hdsmt/internal/telemetry"
	"hdsmt/internal/tshist"
	"hdsmt/internal/version"
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		workers  = flag.Int("workers", 0, "concurrent simulations (0 = GOMAXPROCS)")
		journal  = flag.String("journal", "", "JSONL checkpoint journal path (optional): every simulation result is appended, and a restart preloads them all")
		archives = flag.String("archives", "", "directory for named pareto-front archives (optional; a canceled \"pareto\" job resubmitted with the same archive name resumes its front)")
		debug    = flag.Bool("debug", false, "mount net/http/pprof profiling handlers under /debug/pprof/")

		jobJournal  = flag.String("job-journal", "", "JSONL job journal path (optional): makes the job table durable across restarts — settled jobs re-list, archive-backed pareto jobs resume, the rest are marked interrupted")
		maxActive   = flag.Int("max-active", 0, "max concurrently executing jobs (0 = unlimited)")
		maxPending  = flag.Int("max-pending", 64, "accept-queue depth beyond -max-active; a full queue answers 429 + Retry-After (only meaningful with -max-active)")
		tenantQuota = flag.Int("tenant-quota", 0, "max unsettled jobs per tenant, keyed by the X-API-Key header (0 = unlimited)")
		rate        = flag.Float64("rate", 0, "sustained job-submission rate in jobs/s, token bucket shared by all tenants (0 = unlimited)")
		burst       = flag.Int("burst", 0, "token-bucket depth for -rate (0 = max(rate, 1))")
		jobTimeout  = flag.Duration("job-timeout", 0, "default per-job execution deadline, any kind (0 = none); jobs may lower it with timeout_sec")
		maxBody     = flag.Int64("max-body", 1<<20, "largest accepted POST /jobs body in bytes")
		drainWait   = flag.Duration("drain-timeout", 30*time.Second, "on SIGTERM/SIGINT, how long to let accepted jobs finish before exiting")
		faults      = flag.String("fault", "", "fault-injection spec for chaos testing, e.g. 'engine.journal.append:err=0.3,engine.simulate:delay=5ms@0.5' (see internal/faultinject; empty = disabled)")
		faultSeed   = flag.Int64("fault-seed", 1, "seed for the fault-injection schedule (same seed + same spec = same faults)")
		logLevel    = flag.String("log-level", "info", "minimum log level: debug, info, warn or error (debug adds a per-request access line)")
		logFormat   = flag.String("log-format", "text", "log output format: text (key=value) or json (one object per line)")

		sseHeartbeat = flag.Duration("sse-heartbeat", 15*time.Second, "idle SSE stream heartbeat period (must be > 0); keeps proxies from timing out quiet event streams")
		histInterval = flag.Duration("history-interval", 5*time.Second, "metrics-history sampling period for GET /metrics/history (must be > 0)")
		histCap      = flag.Int("history-cap", 512, "metrics-history ring size in samples; with -history-interval 5s, 512 covers ~42 minutes")
		sloAvail     = flag.Float64("slo-availability", 0.999, "availability SLO objective: target fraction of non-5xx responses (0 < objective < 1)")
		sloLatency   = flag.String("slo-latency", "", "per-kind latency SLO targets, e.g. 'run=0.5,sweep=30' (kind=p95 seconds; empty = none)")
		traceSpans   = flag.Int("trace-spans", telemetry.DefaultJobTraceCap, "per-job span-buffer capacity for GET /jobs/{id}/trace; oldest spans are dropped beyond it")
	)
	flag.Parse()

	if *sseHeartbeat <= 0 {
		fmt.Fprintf(os.Stderr, "hdsmtd: -sse-heartbeat: must be > 0 (got %v)\n", *sseHeartbeat)
		os.Exit(2)
	}
	if *histInterval <= 0 {
		fmt.Fprintf(os.Stderr, "hdsmtd: -history-interval: must be > 0 (got %v)\n", *histInterval)
		os.Exit(2)
	}
	if *sloAvail <= 0 || *sloAvail >= 1 {
		fmt.Fprintf(os.Stderr, "hdsmtd: -slo-availability: objective must be in (0, 1), got %g\n", *sloAvail)
		os.Exit(2)
	}
	latencySLOs, err := tshist.ParseLatencyTargets(*sloLatency)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hdsmtd: -slo-latency: %v\n", err)
		os.Exit(2)
	}

	level, err := obslog.ParseLevel(*logLevel)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hdsmtd: -log-level: %v\n", err)
		os.Exit(2)
	}
	logOpts := []obslog.Option{obslog.WithLevel(level)}
	switch *logFormat {
	case "json":
		logOpts = append(logOpts, obslog.WithJSON())
	case "text":
	default:
		fmt.Fprintf(os.Stderr, "hdsmtd: -log-format: unknown format %q (want text or json)\n", *logFormat)
		os.Exit(2)
	}
	logger := obslog.New(os.Stderr, logOpts...)
	log := logger.With(obslog.F("component", "hdsmtd"))

	if *faults != "" {
		plan, err := faultinject.ParseSpec(*faults)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hdsmtd: -fault: %v\n", err)
			os.Exit(2)
		}
		faultinject.Enable(*faultSeed, plan)
		log.Warn("FAULT INJECTION ARMED", obslog.F("seed", *faultSeed), obslog.F("plan", faultinject.Summary()))
	}

	// One registry spans every layer: the engine's cache counters, the
	// search drivers' per-strategy progress and the server's per-kind job
	// instruments all land in the same GET /metrics scrape.
	reg := telemetry.NewRegistry()
	// The sampler snapshots that registry on a fixed cadence, turning the
	// instantaneous counters into windowed rates, latency quantiles and
	// SLO burn status for GET /metrics/history and hdsmtop.
	sampler := tshist.New(reg, tshist.Config{
		Interval: *histInterval,
		Capacity: *histCap,
		SLOs:     append([]tshist.SLO{tshist.AvailabilitySLO(*sloAvail)}, latencySLOs...),
	})
	samplerCtx, samplerStop := context.WithCancel(context.Background())
	defer samplerStop()
	go sampler.Run(samplerCtx)

	runner, err := sim.NewRunner(engine.Options{
		Workers:     *workers,
		JournalPath: *journal,
		Telemetry:   reg,
		Log:         logger,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "hdsmtd: %v\n", err)
		os.Exit(1)
	}
	defer runner.Close()
	if st := runner.Stats(); st.Restored > 0 {
		log.Info("restored results from journal", obslog.F("restored", st.Restored), obslog.F("journal", *journal))
	}

	srvOpts := []server.Option{
		server.WithTelemetry(reg),
		server.WithLogger(logger),
		server.WithMaxBodyBytes(*maxBody),
		server.WithSSEHeartbeat(*sseHeartbeat),
		server.WithHistory(sampler),
		server.WithTraceSpanCap(*traceSpans),
		server.WithAdmission(server.AdmissionConfig{
			MaxActive:   *maxActive,
			MaxPending:  *maxPending,
			TenantQuota: *tenantQuota,
			Rate:        *rate,
			Burst:       *burst,
		}),
	}
	if *archives != "" {
		srvOpts = append(srvOpts, server.WithArchiveDir(*archives))
	}
	if *jobJournal != "" {
		srvOpts = append(srvOpts, server.WithJobJournal(*jobJournal))
	}
	if *jobTimeout > 0 {
		srvOpts = append(srvOpts, server.WithDeadlines(map[string]time.Duration{
			"run": *jobTimeout, "evaluate": *jobTimeout, "sweep": *jobTimeout,
			"search": *jobTimeout, "pareto": *jobTimeout,
		}))
	}
	jobSrv, err := server.New(runner, srvOpts...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hdsmtd: %v\n", err)
		os.Exit(1)
	}
	defer jobSrv.Close()
	handler := jobSrv.Handler()
	if *debug {
		// Profiling is opt-in: the handlers expose stacks and heap
		// contents, so they stay off unless the operator asks.
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		mux.Handle("/", handler)
		handler = mux
		log.Info("pprof enabled at /debug/pprof/")
	}
	// The header/read timeouts bound what one slow or malicious client
	// can hold open; there is deliberately no WriteTimeout because result
	// payloads for large sweeps can be slow to stream and job execution
	// itself is bounded by -job-timeout, not the connection.
	srv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	go func() {
		log.Info("hdsmtd listening", obslog.F("addr", *addr), obslog.F("version", version.Version))
		if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Error("serve failed", obslog.Err(err))
			os.Exit(1)
		}
	}()

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	<-stop
	// Graceful drain: stop accepting (503 + Retry-After), let accepted
	// jobs settle — journaled, so nothing is lost either way — then take
	// the listener down. A second signal aborts the wait.
	log.Info("draining; signal again to abort", obslog.F("timeout", drainWait.String()))
	dctx, dcancel := context.WithTimeout(context.Background(), *drainWait)
	go func() {
		<-stop
		log.Warn("second signal: aborting drain")
		dcancel()
	}()
	if err := jobSrv.Drain(dctx); err != nil {
		log.Warn("drain incomplete; unfinished jobs will be recovered from the job journal", obslog.Err(err))
	}
	dcancel()
	log.Info("shutting down")
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = srv.Shutdown(ctx)
}
