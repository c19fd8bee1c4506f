// Package serve implements the HTTP API of the Entropy/IP model-serving
// daemon: the network face of the paper's interactive conditional
// probability browser (Figs. 1, 7, 9–10) and of candidate generation for
// scanning (§5.5–5.6), backed by a versioned model registry.
//
// API (all bodies JSON):
//
//	GET    /v1/models                     list models (latest version each)
//	GET    /v1/models/{name}              info + all versions of one model
//	GET    /v1/models/{name}/model        download the serialized model
//	PUT    /v1/models/{name}              upload a model, or train one from
//	                                      a posted address set (queued on a
//	                                      bounded worker pool)
//	DELETE /v1/models/{name}              delete all versions
//	POST   /v1/models/{name}/browse       conditional probability query
//	POST   /v1/models/{name}/generate     stream candidates (NDJSON, or the
//	                                      framed binary encoding of
//	                                      internal/wire via Accept; batch
//	                                      requests fan out multiple seeded
//	                                      streams in one response)
//	POST   /v1/models/{name}/observe      ingest observed addresses (NDJSON,
//	                                      or binary via Content-Type)
//	GET    /v1/models/{name}/drift        drift status of the model
//	GET    /healthz (alias /v1/healthz)   liveness + build version
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"runtime/debug"
	"strconv"
	"sync"
	"time"

	"entropyip/internal/admission"
	"entropyip/internal/buildinfo"
	"entropyip/internal/core"
	"entropyip/internal/ip6"
	"entropyip/internal/obs"
	"entropyip/internal/obs/trace"
	"entropyip/internal/registry"
)

// Defaults used when Options fields are zero.
const (
	DefaultWorkers          = 2
	DefaultQueueDepth       = 8
	DefaultMaxBodyBytes     = 64 << 20 // 64 MiB of addresses or model JSON
	DefaultMaxGenerateCount = 10_000_000
)

// DefaultFlushEvery is the number of candidates per flushed chunk of a
// generate stream: NDJSON lines per write, records per binary data frame.
const DefaultFlushEvery = 512

// Options configures the HTTP server.
type Options struct {
	// Workers is the number of concurrent model-training workers; training
	// requests beyond this run after queued ones. Zero means
	// DefaultWorkers.
	Workers int
	// QueueDepth is how many training requests may wait for a worker
	// before the server answers 503. Zero means DefaultQueueDepth;
	// negative means no queueing beyond the workers themselves.
	QueueDepth int
	// MaxBodyBytes caps request body size. Zero means DefaultMaxBodyBytes.
	MaxBodyBytes int64
	// MaxGenerateCount caps the count of one generate request. Zero means
	// DefaultMaxGenerateCount.
	MaxGenerateCount int
	// Refresh configures the online ingest + drift detection + automatic
	// model refresh loop behind POST /v1/models/{name}/observe. The zero
	// value scores drift with default thresholds but does not retrain;
	// set Refresh.AutoRefresh to close the loop.
	Refresh RefreshOptions
	// Logger receives structured request logs (one record per completed
	// request, with a per-request ID) and subsystem events. Nil discards
	// everything — instrumented code never needs a nil check.
	Logger *slog.Logger
	// Trace configures the request-tracing flight recorder (ring capacity,
	// tail-sampling policy). The zero value enables tracing with defaults;
	// see trace.Policy.
	Trace trace.Policy
	// Admission configures per-tenant admission control on the /v1 model
	// routes: request-rate token buckets, generation budgets
	// (candidates/second), and per-tenant concurrency slots with bounded
	// queueing. The zero value disables every gate. Tenant identity is the
	// X-Tenant request header (validated), falling back to the remote IP.
	Admission admission.Config
}

func (o Options) workers() int {
	if o.Workers <= 0 {
		return DefaultWorkers
	}
	return o.Workers
}

func (o Options) queueDepth() int {
	if o.QueueDepth == 0 {
		return DefaultQueueDepth
	}
	if o.QueueDepth < 0 {
		return 0
	}
	return o.QueueDepth
}

func (o Options) maxBodyBytes() int64 {
	if o.MaxBodyBytes <= 0 {
		return DefaultMaxBodyBytes
	}
	return o.MaxBodyBytes
}

func (o Options) maxGenerateCount() int {
	if o.MaxGenerateCount <= 0 {
		return DefaultMaxGenerateCount
	}
	return o.MaxGenerateCount
}

// Server is the HTTP front end over a model registry. It implements
// http.Handler.
type Server struct {
	reg       *registry.Registry
	opts      Options
	pool      *Pool
	metrics   *Metrics
	refresher *Refresher
	mux       *http.ServeMux

	obs      *obs.Registry
	logger   *slog.Logger
	tracer   *trace.Tracer
	recorder *trace.Recorder
	// adm gates the /v1 model routes; nil (admission disabled) admits
	// everything at zero cost.
	adm *admission.Controller
	// draining is closed by Drain: in-flight generate streams stop after
	// their current candidate and emit an in-band shutdown error.
	draining  chan struct{}
	drainOnce sync.Once
	// patterns lists every mux pattern registered through handle, in
	// registration order; the OpenAPI consistency test diffs it against
	// the spec's route list.
	patterns []string
	// Serving-plane counters fed by the handlers (see serve/obs.go for
	// the scrape-time collectors over the other subsystems).
	candidates      *obs.Counter
	observeAccepted *obs.Counter
	observeInvalid  *obs.Counter
	// encRequests counts requests by route and negotiated encoding,
	// indexed [routeGenerate|routeObserve][encNDJSON|encBinary].
	encRequests [2][2]*obs.Counter
	// stageHist maps core.BuildStages names to the per-stage training
	// latency histograms; read-only after New.
	stageHist map[string]*obs.Histogram
}

// New returns a Server over the given registry.
func New(reg *registry.Registry, opts Options) *Server {
	pool := NewPool(opts.workers(), opts.queueDepth())
	logger := opts.Logger
	if logger == nil {
		logger = obs.NopLogger()
	}
	o := obs.NewRegistry()
	recorder := trace.NewRecorder(opts.Trace)
	s := &Server{
		reg:       reg,
		opts:      opts,
		pool:      pool,
		metrics:   newMetrics(o),
		refresher: NewRefresher(reg, pool, opts.Refresh),
		mux:       http.NewServeMux(),
		obs:       o,
		logger:    logger,
		tracer:    trace.NewTracer(recorder),
		recorder:  recorder,
		adm:       admission.New(opts.Admission),
		draining:  make(chan struct{}),
	}
	s.refresher.tracer = s.tracer
	s.registerObservability()
	// Model routes go through the admission rate gate; health, metrics and
	// introspection stay ungated so load balancers and operators observe
	// saturation instead of being shed by it.
	s.handleGated("GET /v1/models", s.handleList)
	s.handleGated("GET /v1/models/{name}", s.handleModelInfo)
	s.handleGated("GET /v1/models/{name}/model", s.handleDownload)
	s.handleGated("PUT /v1/models/{name}", s.handlePut)
	s.handleGated("DELETE /v1/models/{name}", s.handleDelete)
	s.handleGated("POST /v1/models/{name}/browse", s.handleBrowse)
	s.handleGated("POST /v1/models/{name}/generate", s.handleGenerate)
	s.handleGated("POST /v1/models/{name}/observe", s.handleObserve)
	s.handleGated("GET /v1/models/{name}/drift", s.handleDriftStatus)
	s.handle("GET /healthz", s.handleHealthz)
	s.handle("GET /v1/healthz", s.handleHealthz)
	s.handle("GET /metrics", s.handleMetrics)
	s.handle("GET /v1/openapi.json", s.handleOpenAPI)
	s.handle("GET /v1/debug/traces", s.handleDebugTraces)
	return s
}

// Refresher exposes the ingest/drift/refresh loop (for the daemon's tail
// mode and for tests).
func (s *Server) Refresher() *Refresher { return s.refresher }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// handle registers an instrumented handler under a method+path pattern:
// per-route counters and latency histogram (with trace exemplars), a
// per-request ID (honored from a well-formed inbound X-Request-Id or
// minted, echoed in X-Request-Id, attached to the request context for
// handler logging), a root trace span (joining an inbound W3C
// traceparent or minting a fresh trace, its ID echoed in X-Trace-Id), a
// structured access-log record per completed request, and panic
// recovery — a panicking handler answers 500 (when the header is still
// unwritten), the in-flight gauge is decremented either way, and
// eip_http_panics_total increments instead of the gauge wedging.
func (s *Server) handle(pattern string, h http.HandlerFunc) {
	s.register(pattern, h, false)
}

// handleGated registers like handle but additionally runs the admission
// request-rate gate before the handler: shed requests answer 429 with
// Retry-After (still metered, traced and logged) without entering the
// handler.
func (s *Server) handleGated(pattern string, h http.HandlerFunc) {
	s.register(pattern, h, true)
}

func (s *Server) register(pattern string, h http.HandlerFunc, gated bool) {
	s.patterns = append(s.patterns, pattern)
	rm := s.metrics.route(pattern)
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		id := inboundRequestID(r)
		sc, _ := trace.ParseTraceparent(r.Header.Get("Traceparent"))
		root := s.tracer.StartRoot(pattern, sc)
		ri := &reqInfo{id: id, traceID: root.TraceID().String(), span: root, tenant: tenantID(r)}
		root.SetAttr("tenant", ri.tenant)
		s.metrics.begin()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		sw.Header().Set("X-Request-Id", id)
		if ri.traceID != "" {
			sw.Header().Set("X-Trace-Id", ri.traceID)
		}
		r = r.WithContext(withReqInfo(r.Context(), ri))
		defer func() {
			dur := time.Since(start)
			if p := recover(); p != nil {
				if p == http.ErrAbortHandler {
					// The sanctioned abort: account for the request, then
					// let net/http handle the panic as designed.
					root.SetInt("status", int64(sw.status))
					root.Finish()
					s.metrics.end(rm, sw.status, dur, sw.bytes, ri.traceID)
					panic(p)
				}
				s.metrics.panicked()
				s.logger.Error("handler panic",
					"request_id", id,
					"trace_id", ri.traceID,
					"route", pattern,
					"panic", fmt.Sprint(p),
					"stack", string(debug.Stack()))
				root.SetError(fmt.Sprint("panic: ", p))
				if !sw.wroteHeader {
					writeError(sw, r, http.StatusInternalServerError, "internal server error")
				}
			}
			if sw.status >= 500 && !root.Failed() {
				root.SetError(http.StatusText(sw.status))
			}
			root.SetInt("status", int64(sw.status))
			root.Finish()
			s.metrics.end(rm, sw.status, dur, sw.bytes, ri.traceID)
			s.logRequest(r, pattern, ri, sw, dur)
		}()
		if gated {
			if d := s.adm.AllowRequest(ri.tenant); !d.OK {
				s.shedResponse(sw, r, d)
				return
			}
		}
		h(sw, r)
	})
}

// tenantID derives the request's tenant identity: a well-formed
// X-Tenant header, else the remote IP (the port is stripped so one
// client's keep-alive connections share a bucket).
func tenantID(r *http.Request) string {
	if t := r.Header.Get("X-Tenant"); t != "" && validTenant(t) {
		return t
	}
	if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil {
		return host
	}
	return r.RemoteAddr
}

// validTenant bounds self-declared tenant names to 64 bytes of
// [A-Za-z0-9._-]: a hostile header must not mint arbitrary limiter keys
// or smuggle structure into logs and trace attributes. Invalid names
// silently fall back to the remote IP rather than erroring — the header
// is advisory identity, not authentication.
func validTenant(t string) bool {
	if len(t) > 64 {
		return false
	}
	for i := 0; i < len(t); i++ {
		c := t[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

// shedResponse answers one refused admission decision: 429, a
// Retry-After hint, and the v1 error envelope naming the gate that
// refused (the Reason strings are stable, same set as the shed metric's
// reason label).
func (s *Server) shedResponse(w http.ResponseWriter, r *http.Request, d admission.Decision) {
	w.Header().Set("Retry-After", retryAfterValue(d.RetryAfter))
	writeError(w, r, http.StatusTooManyRequests, "request shed at the %s gate; retry after %v", d.Reason, d.RetryAfter)
}

// retryAfterValue renders a Retry-After header value: whole seconds,
// rounded up, at least 1 (a zero would invite an immediate retry storm).
func retryAfterValue(d time.Duration) string {
	secs := int64((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.FormatInt(secs, 10)
}

// Drain moves the server into shutdown mode: in-flight generate streams
// stop after their current candidate and emit an in-band shutdown error
// (a binary Error frame, or an NDJSON error line) so clients can tell
// the cut from a legitimately short stream. Call it before
// http.Server.Shutdown, which only waits for handlers to return.
// Idempotent.
func (s *Server) Drain() {
	s.drainOnce.Do(func() { close(s.draining) })
}

func (s *Server) isDraining() bool {
	select {
	case <-s.draining:
		return true
	default:
		return false
	}
}

// logRequest emits the per-request access-log record. Success is Debug
// so request-rate logging is opt-in; client errors are Warn and server
// errors Error. The Enabled check skips attribute assembly entirely when
// the level is filtered, keeping the hot path allocation-free under the
// default Info level.
func (s *Server) logRequest(r *http.Request, pattern string, ri *reqInfo, sw *statusWriter, dur time.Duration) {
	level := slog.LevelDebug
	switch {
	case sw.status >= 500:
		level = slog.LevelError
	case sw.status >= 400:
		level = slog.LevelWarn
	}
	ctx := r.Context()
	if !s.logger.Enabled(ctx, level) {
		return
	}
	s.logger.LogAttrs(ctx, level, "request",
		slog.String("request_id", ri.id),
		slog.String("trace_id", ri.traceID),
		slog.String("span_id", ri.span.Context().SpanID.String()),
		slog.String("method", r.Method),
		slog.String("path", r.URL.Path),
		slog.String("route", pattern),
		slog.String("tenant", ri.tenant),
		slog.Int("status", sw.status),
		slog.Int64("bytes", sw.bytes),
		slog.Duration("duration", dur),
		slog.String("remote", r.RemoteAddr))
}

// statusWriter records the response status and body bytes for metrics.
type statusWriter struct {
	http.ResponseWriter
	status      int
	bytes       int64
	wroteHeader bool
}

func (w *statusWriter) WriteHeader(status int) {
	if !w.wroteHeader {
		w.status = status
		w.wroteHeader = true
	}
	w.ResponseWriter.WriteHeader(status)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	// An implicit first Write commits the default 200 header; record that
	// so the panic middleware knows a 500 can no longer be sent.
	w.wroteHeader = true
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// ListModelsResponse is the body of GET /v1/models.
type ListModelsResponse struct {
	// Models holds the latest version of every model, sorted by name.
	Models []registry.Info `json:"models"`
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, ListModelsResponse{Models: s.reg.List()})
}

// ModelInfoResponse is the body of GET /v1/models/{name}.
type ModelInfoResponse struct {
	// Latest is the newest version's info.
	Latest registry.Info `json:"latest"`
	// Versions lists every stored version, oldest first.
	Versions []registry.Info `json:"versions"`
}

func (s *Server) handleModelInfo(w http.ResponseWriter, r *http.Request) {
	versions, err := s.reg.Versions(r.PathValue("name"))
	if err != nil {
		writeRegistryError(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, ModelInfoResponse{
		Latest:   versions[len(versions)-1],
		Versions: versions,
	})
}

func (s *Server) handleDownload(w http.ResponseWriter, r *http.Request) {
	version, err := versionParam(r)
	if err != nil {
		writeError(w, r, http.StatusBadRequest, "%v", err)
		return
	}
	rc, info, err := s.reg.OpenRaw(r.PathValue("name"), version)
	if err != nil {
		writeRegistryError(w, r, err)
		return
	}
	defer rc.Close()
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Model-Version", strconv.Itoa(info.Version))
	w.WriteHeader(http.StatusOK)
	_, _ = io.Copy(w, rc)
}

// versionParam parses the optional ?version=N query parameter; absent or
// 0 means latest. Malformed values are an error rather than silently
// serving the latest version.
func versionParam(r *http.Request) (int, error) {
	raw := r.URL.Query().Get("version")
	if raw == "" {
		return 0, nil
	}
	v, err := strconv.Atoi(raw)
	if err != nil || v < 0 {
		return 0, fmt.Errorf("invalid version %q", raw)
	}
	return v, nil
}

// TrainOptions is the JSON-facing subset of core.Options accepted when
// training a model server-side.
type TrainOptions struct {
	// Prefix64Only restricts the model to the top 64 bits (the client
	// /64-prefix prediction configuration of §5.6).
	Prefix64Only bool `json:"prefix64_only,omitempty"`
	// MaxNybble restricts segmentation to the first MaxNybble nybbles.
	MaxNybble int `json:"max_nybble,omitempty"`
	// MaxParents bounds the number of BN parents per segment, in
	// 0..bayes.MaxParentsLimit (0 selects the default).
	MaxParents int `json:"max_parents,omitempty"`
}

func (t TrainOptions) coreOptions() core.Options {
	opts := core.Options{Prefix64Only: t.Prefix64Only}
	opts.Segmentation.MaxNybble = t.MaxNybble
	opts.Learn.MaxParents = t.MaxParents
	return opts
}

// PutModelRequest is the body of PUT /v1/models/{name}. Exactly one of
// Model or Addresses must be set: Model uploads a pre-trained model in the
// core.Save format, Addresses trains a new model server-side on the
// posted address set.
type PutModelRequest struct {
	// Model is a serialized model document (the format Model.Save writes).
	Model json.RawMessage `json:"model,omitempty"`
	// Addresses is the training set, one textual IPv6 address each.
	Addresses []string `json:"addresses,omitempty"`
	// Options configures server-side training; ignored for uploads.
	Options TrainOptions `json:"options,omitempty"`
}

// PutModelResponse is the body of a successful PUT.
type PutModelResponse struct {
	// Info describes the stored version.
	Info registry.Info `json:"info"`
	// Trained is true when the server trained the model from addresses,
	// false when a pre-trained model was uploaded.
	Trained bool `json:"trained"`
}

func (s *Server) handlePut(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if !registry.ValidName(name) {
		writeError(w, r, http.StatusBadRequest, "invalid model name %q", name)
		return
	}
	var req PutModelRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	switch {
	case len(req.Model) > 0 && len(req.Addresses) > 0:
		writeError(w, r, http.StatusBadRequest, "set either model or addresses, not both")
	case len(req.Model) > 0:
		info, err := s.reg.PutRaw(name, req.Model)
		switch {
		case err == nil:
			writeJSON(w, http.StatusCreated, PutModelResponse{Info: info})
		case errors.Is(err, registry.ErrInvalidModel):
			writeError(w, r, http.StatusBadRequest, "%v", err)
		default:
			// The document was valid; storing it failed server-side.
			writeError(w, r, http.StatusInternalServerError, "%v", err)
		}
	case len(req.Addresses) > 0:
		s.train(w, r, name, req)
	default:
		writeError(w, r, http.StatusBadRequest, "request needs a model or addresses")
	}
}

// train parses the posted addresses and builds the model on the worker
// pool, so that concurrent training requests queue instead of stampeding.
func (s *Server) train(w http.ResponseWriter, r *http.Request, name string, req PutModelRequest) {
	buildOpts := req.Options.coreOptions()
	if err := buildOpts.Learn.Validate(); err != nil {
		writeError(w, r, http.StatusBadRequest, "options: %v", err)
		return
	}
	addrs := make([]ip6.Addr, 0, len(req.Addresses))
	for i, line := range req.Addresses {
		a, err := ip6.ParseAddr(line)
		if err != nil {
			writeError(w, r, http.StatusBadRequest, "address %d: %v", i, err)
			return
		}
		addrs = append(addrs, a)
	}
	var info registry.Info
	var buildErr error
	err := s.pool.Do(r.Context(), func() error {
		ctx := r.Context()
		buildOpts.OnStage = stageHook(s.stageHist, requestSpan(ctx), s.logger,
			"request_id", requestID(ctx), "trace_id", traceIDString(ctx), "model", name)
		m, err := core.Build(addrs, buildOpts)
		if err != nil {
			buildErr = err
			return err
		}
		info, err = s.reg.Put(name, m)
		return err
	})
	switch {
	case err == nil:
		writeJSON(w, http.StatusCreated, PutModelResponse{Info: info, Trained: true})
	case errors.Is(err, ErrBusy):
		w.Header().Set("Retry-After", "1")
		writeError(w, r, http.StatusServiceUnavailable, "%v", err)
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		// Client went away while queued; nothing useful to write.
		writeError(w, r, http.StatusServiceUnavailable, "request cancelled while queued")
	case buildErr != nil:
		writeError(w, r, http.StatusUnprocessableEntity, "training failed: %v", buildErr)
	default:
		// Training worked; persisting the model failed server-side.
		writeError(w, r, http.StatusInternalServerError, "%v", err)
	}
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	if err := s.reg.Delete(r.PathValue("name")); err != nil {
		writeRegistryError(w, r, err)
		return
	}
	s.refresher.Forget(r.PathValue("name"))
	w.WriteHeader(http.StatusNoContent)
}

// BrowseRequest is the body of POST /v1/models/{name}/browse: one click
// state of the paper's conditional probability browser.
type BrowseRequest struct {
	// Version selects a model version; 0 means latest.
	Version int `json:"version,omitempty"`
	// Evidence fixes segments to value codes, e.g. {"J": "J1"}.
	Evidence map[string]string `json:"evidence,omitempty"`
}

// BrowseResponse is the body of a successful browse query.
type BrowseResponse struct {
	Name    string `json:"name"`
	Version int    `json:"version"`
	// Distributions holds one posterior per segment, in address order —
	// the rows of Figs. 1(b), 7(b), 9(b), 10(b).
	Distributions []core.SegmentDistribution `json:"distributions"`
}

func (s *Server) handleBrowse(w http.ResponseWriter, r *http.Request) {
	var req BrowseRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	m, info, err := s.getModel(r.Context(), r.PathValue("name"), req.Version)
	if err != nil {
		writeRegistryError(w, r, err)
		return
	}
	dists, err := m.Browse(core.Evidence(req.Evidence))
	if err != nil {
		writeError(w, r, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, BrowseResponse{Name: info.Name, Version: info.Version, Distributions: dists})
}

// handleDriftStatus reports the drift state of one model.
func (s *Server) handleDriftStatus(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	st, ok := s.refresher.Status(name)
	if !ok {
		// Distinguish "no observations yet" from "no such model".
		if _, err := s.reg.Versions(name); err != nil {
			writeRegistryError(w, r, err)
			return
		}
		st = DriftStatus{Model: name}
	}
	writeJSON(w, http.StatusOK, st)
}

// HealthResponse is the body of GET /healthz: liveness and the build
// version. Every metric is on GET /metrics.
type HealthResponse struct {
	Status string `json:"status"`
	// Version identifies the build (module version + VCS revision).
	Version string `json:"version"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, HealthResponse{Status: "ok", Version: buildinfo.Version()})
}

// decodeBody decodes a JSON request body with a size cap, writing a 4xx
// and returning false on failure. An empty body decodes to the zero value.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v interface{}) bool {
	body := http.MaxBytesReader(w, r.Body, s.opts.maxBodyBytes())
	dec := json.NewDecoder(body)
	if err := dec.Decode(v); err != nil {
		if err == io.EOF {
			return true // empty body = all defaults
		}
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, r, http.StatusRequestEntityTooLarge, "body exceeds %d bytes", tooLarge.Limit)
			return false
		}
		writeError(w, r, http.StatusBadRequest, "invalid JSON body: %v", err)
		return false
	}
	return true
}
