package serve

import (
	"context"
	"log/slog"
	"net/http"
	"runtime"
	"slices"
	"strings"
	"time"

	"entropyip/internal/core"
	"entropyip/internal/obs"
	"entropyip/internal/obs/trace"
	"entropyip/internal/parallel"
)

// This file wires the server's obs.Registry: the static serving-plane
// counters the handlers feed directly, the scrape-time collectors over
// the other subsystems (registry cache, refresher streams, worker pools),
// the GET /metrics handler, and the per-request ID context plumbing.
//
// Conventions (documented in DESIGN.md "Observability"): every family is
// prefixed eip_, units are in the name (_seconds, _bytes), counters end
// in _total. Label cardinality is bounded by construction — `route` and
// `stage` come from finite compile-time sets, `model` tracks live
// refresher streams and is emitted through collectors so deleted models
// stop exporting instead of leaking series.

// trainingStageBuckets spans sub-second mining stages through
// multi-minute Bayesian structure searches on large windows.
var trainingStageBuckets = []float64{.01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10, 30, 60, 120, 300}

// registerObservability installs everything beyond the per-route request
// metrics (which register route by route in handle). Called once from
// New, before the server handles traffic.
func (s *Server) registerObservability() {
	o := s.obs

	s.candidates = o.Counter("eip_generate_candidates_total",
		"Candidate addresses/prefixes streamed by POST generate.")
	s.observeAccepted = o.Counter("eip_observe_lines_total",
		"Observed addresses (NDJSON lines or binary records) by outcome.", "result", "accepted")
	s.observeInvalid = o.Counter("eip_observe_lines_total",
		"Observed addresses (NDJSON lines or binary records) by outcome.", "result", "invalid")

	// Per-encoding request counters for the two negotiated routes, all
	// four series pre-registered so the handlers index an array.
	for ri, route := range [...]string{"generate", "observe"} {
		for ei, encName := range [...]string{"ndjson", "binary"} {
			s.encRequests[ri][ei] = o.Counter("eip_encoding_requests_total",
				"Requests by route and negotiated wire encoding.",
				"route", route, "encoding", encName)
		}
	}

	// One histogram series per pipeline stage, pre-registered so the
	// OnStage callback is a map lookup on a read-only map plus a lock-free
	// observe — no allocation, no registration race.
	s.stageHist = make(map[string]*obs.Histogram, len(core.BuildStages))
	for _, stage := range core.BuildStages {
		s.stageHist[stage] = o.Histogram("eip_training_stage_seconds",
			"Wall time of each training pipeline stage.", trainingStageBuckets, "stage", stage)
	}

	loadSeconds := o.Histogram("eip_registry_load_seconds",
		"Latency of model loads from disk (cache misses).", nil)
	s.reg.SetLoadObserver(loadSeconds.Observe)

	s.refresher.logger = s.logger
	s.refresher.stageHist = s.stageHist
	s.refresher.retrains = o.Counter("eip_refresh_retrains_total",
		"Drift-triggered retrains that ran (shed ones excluded).")
	s.refresher.retrainSeconds = o.Histogram("eip_refresh_retrain_seconds",
		"Wall time of one retrain + shadow evaluation + publish, including pool queue wait.",
		trainingStageBuckets)

	// Registry cache: one collector reading one Stats snapshot per scrape.
	o.Collect(func(e *obs.Expo) {
		st := s.reg.Stats()
		e.Gauge("eip_registry_models", "Distinct model names in the registry.", float64(st.Models))
		e.Gauge("eip_registry_versions", "Stored model versions across all names.", float64(st.Versions))
		e.Gauge("eip_registry_cache_entries", "Decoded models currently cached.", float64(st.CacheEntries))
		e.Gauge("eip_registry_cache_capacity", "Decoded-model cache capacity.", float64(st.CacheCapacity))
		e.Counter("eip_registry_cache_hits_total", "Model cache hits.", float64(st.Hits))
		e.Counter("eip_registry_cache_misses_total", "Model cache misses.", float64(st.Misses))
		e.Counter("eip_registry_cache_evictions_total", "Models evicted from the cache.", float64(st.Evictions))
		e.Counter("eip_registry_coalesced_loads_total", "Lookups that joined another goroutine's in-flight disk load.", float64(st.Coalesced))
	})

	// Worker pools: the bounded training pool and the package-level
	// training-pipeline scheduler.
	o.Collect(func(e *obs.Expo) {
		ps := s.pool.Stats()
		e.Gauge("eip_training_pool_workers", "Configured training pool workers.", float64(ps.Workers))
		e.Gauge("eip_training_pool_active", "Training pool workers running work.", float64(ps.Active))
		e.Gauge("eip_training_pool_queued", "Admitted training requests waiting for a worker.", float64(ps.Queued))
		e.Gauge("eip_training_pool_queue_capacity", "Training pool queue depth beyond the workers.", float64(ps.QueueCapacity))
		e.Counter("eip_training_pool_rejected_total", "Training requests shed with 503 (queue full).", float64(ps.Rejected))

		pst := parallel.Snapshot()
		e.Counter("eip_parallel_jobs_total", "Dispatch calls into the training-pipeline scheduler.", float64(pst.Jobs))
		e.Counter("eip_parallel_tasks_total", "Work units (indices or shards) dispatched by the scheduler.", float64(pst.Tasks))
		e.Gauge("eip_parallel_workers_running", "Scheduler workers currently executing pipeline code.", float64(pst.Running))
	})

	// Go runtime: the process itself (goroutine count, heap, GC time) —
	// read fresh per scrape so the series cannot go stale.
	o.Collect(func(e *obs.Expo) {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		e.Gauge("eip_go_goroutines", "Goroutines currently live in the process.", float64(runtime.NumGoroutine()))
		e.Gauge("eip_go_heap_bytes", "Heap bytes currently allocated and in use.", float64(ms.HeapAlloc))
		e.Counter("eip_go_gc_pause_seconds_total", "Cumulative stop-the-world GC pause time.", float64(ms.PauseTotalNs)/1e9)
	})

	// Flight recorder: tail-sampling keep/discard counters and retention.
	o.Collect(func(e *obs.Expo) {
		st := s.recorder.Stats()
		e.Counter("eip_trace_kept_total", "Completed traces retained by the flight recorder.", float64(st.Kept))
		e.Counter("eip_trace_discarded_total", "Completed traces discarded by tail sampling.", float64(st.Discarded))
		e.Gauge("eip_trace_retained", "Traces currently held in the flight-recorder ring.", float64(st.Retained))
	})

	// Admission control: aggregate series only — tenant identity is an
	// unbounded key space, so no per-tenant labels; the shed-reason label
	// set is the four fixed gate names. Registered only when admission is
	// on, so a default server's exposition is unchanged.
	if s.adm != nil {
		o.Collect(func(e *obs.Expo) {
			st := s.adm.Stats()
			e.Counter("eip_admission_admitted_total", "Requests admitted past the rate gate.", float64(st.Admitted))
			e.Counter("eip_admission_shed_total", "Requests shed, by admission gate.", float64(st.ShedRate), "reason", "rate")
			e.Counter("eip_admission_shed_total", "Requests shed, by admission gate.", float64(st.ShedBudget), "reason", "budget")
			e.Counter("eip_admission_shed_total", "Requests shed, by admission gate.", float64(st.ShedQueueFull), "reason", "queue_full")
			e.Counter("eip_admission_shed_total", "Requests shed, by admission gate.", float64(st.ShedDeadline), "reason", "deadline")
			e.Counter("eip_admission_gen_candidates_total", "Candidates charged against generation budgets.", float64(st.GenCharged))
			e.Counter("eip_admission_gen_refunded_total", "Charged candidates refunded by later-gate sheds.", float64(st.GenRefunded))
			e.Counter("eip_admission_evicted_tenants_total", "Idle tenants evicted by TTL sweeps.", float64(st.Evicted))
			e.Gauge("eip_admission_tenants", "Tenants currently holding limiter state.", float64(st.Tenants))
			e.Gauge("eip_admission_queue_depth", "Requests currently waiting for a tenant slot.", float64(st.QueueDepth))
			e.Gauge("eip_admission_slots_in_use", "Generation streams currently holding tenant slots.", float64(st.SlotsInUse))
		})
	}

	// Per-model ingest/drift/refresh series.
	o.Collect(s.refresher.collect)
}

// stageHook builds the core.Options.OnStage callback of one training
// run, client-requested or a drift-triggered retrain. Each stage feeds
// its per-stage histogram in hist, becomes a retroactive child of span
// (OnStage fires after each stage with its duration), and is logged at
// Debug with attrs — the request or trace IDs that let slow stages
// correlate with the run that paid for them — ahead of the stage name
// and duration.
func stageHook(hist map[string]*obs.Histogram, span *trace.Span, logger *slog.Logger, attrs ...any) func(stage string, d time.Duration) {
	attrs = slices.Clip(attrs) // each record appends to a copy
	return func(stage string, d time.Duration) {
		if h := hist[stage]; h != nil {
			h.Observe(d.Seconds())
		}
		span.RecordChild(stage, d)
		logger.Debug("training stage", append(attrs, "stage", stage, "duration", d)...)
	}
}

// handleMetrics serves GET /metrics. The default exposition is the
// Prometheus text format v0.0.4; scrapers that ask for
// application/openmetrics-text via Accept get the OpenMetrics 1.0
// exposition instead, which additionally carries trace exemplars on the
// latency histogram buckets (`# {trace_id="..."}` — a parse error for
// v0.0.4 parsers, hence the negotiation). The route goes through the
// same instrumented middleware as everything else, so scrapes appear in
// the request metrics too.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var buf []byte
	if strings.Contains(r.Header.Get("Accept"), "application/openmetrics-text") {
		buf = s.obs.RenderOpenMetrics(nil)
		w.Header().Set("Content-Type", obs.ContentTypeOpenMetrics)
	} else {
		buf = s.obs.Render(nil)
		w.Header().Set("Content-Type", obs.ContentType)
	}
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(buf)
}

// reqInfoKey carries the middleware's per-request identity — request ID,
// rendered trace ID, and root span — in the request context, for
// handlers that emit their own log records or open child spans.
type ctxKey int

const reqInfoKey ctxKey = 0

// reqInfo is immutable after the middleware installs it; the trace ID
// hex is rendered once here and shared by the response header, log
// records, error envelopes and exemplars.
type reqInfo struct {
	id      string
	traceID string
	span    *trace.Span
	// tenant is the admission identity (X-Tenant header or remote IP);
	// always set by the middleware, even with admission disabled, so log
	// records and spans carry it uniformly.
	tenant string
}

func withReqInfo(ctx context.Context, ri *reqInfo) context.Context {
	return context.WithValue(ctx, reqInfoKey, ri)
}

// requestID returns the request's ID, or "" outside the middleware.
func requestID(ctx context.Context) string {
	if ri, ok := ctx.Value(reqInfoKey).(*reqInfo); ok {
		return ri.id
	}
	return ""
}

// tenantFrom returns the request's tenant identity, or "" outside the
// middleware.
func tenantFrom(ctx context.Context) string {
	if ri, ok := ctx.Value(reqInfoKey).(*reqInfo); ok {
		return ri.tenant
	}
	return ""
}

// traceIDString returns the request's rendered trace ID, or "" outside
// the middleware (or when tracing is disabled).
func traceIDString(ctx context.Context) string {
	if ri, ok := ctx.Value(reqInfoKey).(*reqInfo); ok {
		return ri.traceID
	}
	return ""
}

// requestSpan returns the request's root span (nil-safe to use directly),
// preferring a span installed by trace.ContextWithSpan — subsystem code
// below the handlers parents children off the innermost span.
func requestSpan(ctx context.Context) *trace.Span {
	if sp := trace.SpanFromContext(ctx); sp != nil {
		return sp
	}
	if ri, ok := ctx.Value(reqInfoKey).(*reqInfo); ok {
		return ri.span
	}
	return nil
}
