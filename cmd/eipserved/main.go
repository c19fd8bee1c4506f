// Command eipserved is the Entropy/IP model-serving daemon: a long-running
// HTTP server that holds trained models in a versioned registry (in-memory
// LRU over a disk directory) and answers the paper's two application
// workloads over the network — conditional-probability browsing (Figs. 1,
// 7, 9–10) and candidate generation for scanning (§5.5–5.6) — while
// continuously ingesting observed addresses, scoring the live window for
// drift against the active model, and (with -auto-refresh) retraining and
// rotating models that have gone stale.
//
// Usage:
//
//	eipserved -addr :8080 -dir /var/lib/eipserved
//	eipserved -auto-refresh -ingest-file /var/log/addrs.txt -ingest-model live
//	eipserved -log-format json -log-level debug
//	eipserved -rate-limit 50 -gen-budget 2e6 -tenant-slots 4 -queue-depth 32
//
// Endpoints (see internal/serve for the full API):
//
//	GET    /v1/models                   list models
//	PUT    /v1/models/{name}            upload or train a model
//	POST   /v1/models/{name}/browse     conditional probabilities
//	POST   /v1/models/{name}/generate   stream candidates (NDJSON)
//	POST   /v1/models/{name}/observe    ingest observed addresses (NDJSON)
//	GET    /v1/models/{name}/drift      drift status
//	GET    /healthz (also /v1/healthz)  liveness + build version
//	GET    /metrics                     Prometheus text exposition
//
// Expensive training requests (client-submitted and drift-triggered alike)
// run on a bounded worker pool; the daemon sheds load with 503 when the
// queue is full. SIGINT/SIGTERM trigger a graceful shutdown that lets
// in-flight requests finish. All logging is structured (log/slog) on
// stderr: -log-format selects text or json, -log-level the verbosity
// (per-request access logs are emitted at debug).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"entropyip/internal/admission"
	"entropyip/internal/buildinfo"
	"entropyip/internal/drift"
	"entropyip/internal/ingest"
	"entropyip/internal/ip6"
	"entropyip/internal/obs"
	"entropyip/internal/obs/trace"
	"entropyip/internal/registry"
	"entropyip/internal/serve"
)

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		dir         = flag.String("dir", "models", "model registry directory")
		cacheSize   = flag.Int("cache", registry.DefaultCacheSize, "decoded models kept in memory (LRU)")
		workers     = flag.Int("workers", serve.DefaultWorkers, "concurrent model-training jobs (each build uses all cores)")
		queueDepth  = flag.Int("queue", serve.DefaultQueueDepth, "training requests that may wait for a worker")
		maxBodyMB   = flag.Int("max-body-mb", 64, "request body limit in MiB")
		maxGenerate = flag.Int("max-generate", serve.DefaultMaxGenerateCount, "largest count one generate request may ask for")
		drainWait   = flag.Duration("drain", 30*time.Second, "graceful shutdown timeout")

		// Per-tenant admission control (tenant = X-Tenant header, falling
		// back to the client IP). All zero = admission disabled.
		rateLimit   = flag.Float64("rate-limit", 0, "per-tenant request rate on /v1 model routes, requests/second (0 = unlimited)")
		genBudget   = flag.Float64("gen-budget", 0, "per-tenant generation budget, candidates/second (0 = unlimited)")
		admQueue    = flag.Int("queue-depth", 0, "slot waiters one tenant may queue before requests shed with 429 (0 = default)")
		tenantSlots = flag.Int("tenant-slots", 0, "concurrent generation streams one tenant may run (0 = unlimited)")
		pprofAddr   = flag.String("pprof", "", "serve net/http/pprof on this loopback address (e.g. 127.0.0.1:6060); empty disables profiling")
		logFormat   = flag.String("log-format", "text", "log output format: text or json")
		logLevel    = flag.String("log-level", "info", "minimum log level: debug, info, warn or error (access logs are debug)")
		version     = flag.Bool("version", false, "print the version and exit")

		traceCapacity = flag.Int("trace-capacity", 0, "completed traces the flight recorder retains (0 = default 512)")
		traceSample   = flag.Int("trace-sample", 0, "keep 1 in N unremarkable traces (0 = default 64, negative = only errors/slow/forced)")
		traceSlow     = flag.Duration("trace-slow", 0, "requests at least this slow are always retained (0 = default 250ms)")

		// Online ingest + drift + refresh.
		autoRefresh   = flag.Bool("auto-refresh", false, "retrain and rotate models automatically when drift is detected")
		observeWindow = flag.Int("observe-window", ingest.DefaultWindowSize, "observed addresses kept per model (sliding window)")
		maxPer64      = flag.Int("observe-max-per64", 0, "window slots one /64 prefix may hold per model (0 = unlimited)")
		evaluateEvery = flag.Int("evaluate-every", serve.DefaultEvaluateEvery, "accepted observations between drift evaluations")
		driftEnter    = flag.Float64("drift-enter", drift.DefaultEnter, "drift score that (after -drift-consecutive evaluations) marks a model stale")
		driftExit     = flag.Float64("drift-exit", 0, "drift score at which a stale model recovers (0 = enter/2)")
		driftRuns     = flag.Int("drift-consecutive", drift.DefaultConsecutive, "consecutive evaluations above the enter threshold required")
		driftWindow   = flag.Int("drift-min-window", drift.DefaultMinWindow, "smallest window drift evaluation will judge")
		shadowMargin  = flag.Float64("shadow-margin", 0, "mean log-likelihood improvement (nats/address) a retrained candidate must show before rotation")

		// File tail mode: feed a model's window from an append-only file.
		ingestFile  = flag.String("ingest-file", "", "tail this address file (dataset format) into a model's observation window")
		ingestModel = flag.String("ingest-model", "", "model name -ingest-file feeds (required with -ingest-file)")
		ingestPoll  = flag.Duration("ingest-poll", ingest.DefaultTailPoll, "poll interval of the -ingest-file tail")
		ingestStart = flag.Bool("ingest-from-start", false, "consume the file's existing contents before following appends")
	)
	flag.Parse()

	if *version {
		fmt.Println("eipserved", buildinfo.Version())
		return
	}
	if *logFormat != "text" && *logFormat != "json" {
		fmt.Fprintf(os.Stderr, "eipserved: -log-format must be text or json, got %q\n", *logFormat)
		os.Exit(2)
	}
	level, err := obs.ParseLevel(*logLevel)
	if err != nil {
		fmt.Fprintf(os.Stderr, "eipserved: -log-level: %v\n", err)
		os.Exit(2)
	}
	logger := obs.NewLogger(os.Stderr, *logFormat, level)
	fatal := func(msg string, args ...any) {
		logger.Error(msg, args...)
		os.Exit(1)
	}

	if (*ingestFile == "") != (*ingestModel == "") {
		fatal("-ingest-file and -ingest-model must be set together")
	}

	reg, err := registry.Open(*dir, *cacheSize)
	if err != nil {
		fatal("opening registry", "dir", *dir, "err", err)
	}
	handler := serve.New(reg, serve.Options{
		Workers:          *workers,
		QueueDepth:       *queueDepth,
		MaxBodyBytes:     int64(*maxBodyMB) << 20,
		MaxGenerateCount: *maxGenerate,
		Logger:           logger,
		Trace: trace.Policy{
			Capacity:      *traceCapacity,
			SampleEvery:   *traceSample,
			SlowThreshold: *traceSlow,
		},
		Admission: admission.Config{
			RequestRate: *rateLimit,
			GenBudget:   *genBudget,
			QueueDepth:  *admQueue,
			TenantSlots: *tenantSlots,
		},
		Refresh: serve.RefreshOptions{
			AutoRefresh:   *autoRefresh,
			EvaluateEvery: *evaluateEvery,
			ShadowMargin:  *shadowMargin,
			Ingest: ingest.Config{
				WindowSize: *observeWindow,
				MaxPer64:   *maxPer64,
			},
			Drift: drift.Config{
				Enter:       *driftEnter,
				Exit:        *driftExit,
				Consecutive: *driftRuns,
				MinWindow:   *driftWindow,
			},
			// The Refresher logs its events through the structured logger.
		},
	})

	srv := newHTTPServer(*addr, handler)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Profiling is opt-in and deliberately a SEPARATE listener from the
	// API: pprof must never ride the public address, and a loopback bind
	// keeps heap/CPU profiles reachable only from the box — enforced, not
	// just documented: a non-loopback -pprof host is a startup error. The
	// default mux is avoided so importing net/http/pprof cannot leak
	// handlers into the API server either.
	if *pprofAddr != "" {
		if err := requireLoopback(*pprofAddr); err != nil {
			fatal("-pprof address rejected", "addr", *pprofAddr, "err", err)
		}
		go func() {
			mux := http.NewServeMux()
			mux.HandleFunc("/debug/pprof/", pprof.Index)
			mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
			mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
			mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
			mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
			logger.Info("pprof listening", "url", "http://"+*pprofAddr+"/debug/pprof/")
			srv := &http.Server{Addr: *pprofAddr, Handler: mux, ReadHeaderTimeout: 10 * time.Second}
			if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("pprof server failed", "err", err)
			}
		}()
	}

	if *ingestFile != "" {
		go tailIntoModel(ctx, logger, reg, handler.Refresher(), *ingestFile, *ingestModel, ingest.TailConfig{
			Poll:      *ingestPoll,
			FromStart: *ingestStart,
		})
	}

	errc := make(chan error, 1)
	go func() {
		st := reg.Stats()
		logger.Info("listening",
			"version", buildinfo.Version(),
			"addr", *addr,
			"dir", *dir,
			"models", st.Models,
			"model_versions", st.Versions)
		errc <- srv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fatal("server failed", "err", err)
		}
	case <-ctx.Done():
		logger.Info("shutting down", "drain", *drainWait)
		// Drain first: http.Server.Shutdown only waits for handlers to
		// return, and a streaming generate would otherwise run to
		// completion or the timeout. Drain makes in-flight streams stop
		// after their current candidate with an in-band shutdown error.
		handler.Drain()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainWait)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			logger.Warn("forced shutdown", "err", err)
			_ = srv.Close()
		}
		st := reg.Stats()
		logger.Info("bye", "cache_hits", st.Hits, "cache_misses", st.Misses)
	}
}

// newHTTPServer builds the API server with its connection-hygiene
// timeouts. ReadHeaderTimeout bounds the slowloris window (a client
// dribbling header bytes) and IdleTimeout reclaims keep-alive
// connections parked between requests. WriteTimeout and ReadTimeout
// stay ZERO deliberately: generate responses stream for as long as the
// client keeps reading, and observe bodies may upload for minutes — an
// absolute deadline on either would cut legitimate long transfers
// (TestNewHTTPServerTimeouts pins all four).
func newHTTPServer(addr string, handler http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
}

// requireLoopback rejects a listen address whose host is not a loopback
// IP or "localhost": the pprof listener serves heap contents and accepts
// CPU-profile work from anyone who can connect, so it must never bind a
// public interface.
func requireLoopback(addr string) error {
	host, _, err := net.SplitHostPort(addr)
	if err != nil {
		return fmt.Errorf("invalid listen address: %v", err)
	}
	if host == "localhost" {
		return nil
	}
	ip := net.ParseIP(host)
	if ip == nil || !ip.IsLoopback() {
		return fmt.Errorf("host %q is not a loopback address (use 127.0.0.1:PORT or [::1]:PORT)", host)
	}
	return nil
}

// tailIntoModel follows an address file and feeds the parsed addresses
// into the named model's observation window — the same path POST /observe
// uses, so drift evaluation and auto-refresh behave identically for both
// feeds. The tail does not start until the model exists in the registry:
// starting earlier would advance the read offset past data the refresher
// rejects, silently discarding the backlog a -ingest-from-start boot is
// meant to consume. Observe errors (e.g. the model deleted later) are
// logged at most once per second so a misconfigured tail cannot flood the
// logs.
func tailIntoModel(ctx context.Context, logger *slog.Logger, reg *registry.Registry, r *serve.Refresher, path, model string, cfg ingest.TailConfig) {
	var lastErrLog time.Time
	throttled := func(msg string, args ...any) {
		if time.Since(lastErrLog) >= time.Second {
			lastErrLog = time.Now()
			logger.Warn(msg, args...)
		}
	}
	cfg.OnError = func(line int, err error) {
		throttled("ingest parse error", "file", path, "line", line, "err", err)
	}
	poll := cfg.Poll
	if poll <= 0 {
		poll = ingest.DefaultTailPoll
	}
	for {
		if _, err := reg.Versions(model); err == nil {
			break
		}
		throttled("ingest waiting for model to exist", "model", model, "file", path)
		select {
		case <-ctx.Done():
			return
		case <-time.After(poll):
		}
	}
	logger.Info("tailing into model", "file", path, "model", model)
	err := ingest.TailFile(ctx, path, cfg, func(batch []ip6.Addr) {
		if _, err := r.Observe(ctx, model, batch); err != nil {
			throttled("ingest observe failed", "model", model, "err", err)
		}
	})
	if err != nil && ctx.Err() == nil {
		logger.Error("ingest tail stopped", "file", path, "err", err)
	}
}
