package serve

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sort"
	"sync"
	"time"

	"entropyip/internal/core"
	"entropyip/internal/drift"
	"entropyip/internal/ingest"
	"entropyip/internal/ip6"
	"entropyip/internal/obs"
	"entropyip/internal/obs/trace"
	"entropyip/internal/registry"
)

// DefaultEvaluateEvery is how many accepted observations pass between
// drift evaluations when RefreshOptions.EvaluateEvery is zero.
const DefaultEvaluateEvery = 1024

// RefreshOptions configures the online ingest → drift → retrain loop.
type RefreshOptions struct {
	// Ingest configures each model's observation buffer.
	Ingest ingest.Config
	// Drift configures divergence thresholds and hysteresis.
	Drift drift.Config
	// EvaluateEvery is how many accepted observations pass between drift
	// evaluations of a model. Zero means DefaultEvaluateEvery.
	EvaluateEvery int
	// AutoRefresh enables the full loop: when the detector says a model
	// drifted, retrain it on the live window, shadow-evaluate the
	// candidate and rotate. With it off, drift is scored and reported but
	// models are only rotated by hand.
	AutoRefresh bool
	// ShadowMargin is how much the candidate model's mean per-address
	// log-likelihood on the live window must exceed the active model's
	// before it may be published. Zero means any improvement.
	ShadowMargin float64
}

func (o RefreshOptions) evaluateEvery() int {
	if o.EvaluateEvery <= 0 {
		return DefaultEvaluateEvery
	}
	return o.EvaluateEvery
}

// RotationInfo describes one automatic model rotation.
type RotationInfo struct {
	// Version is the registry version the rotation published.
	Version int `json:"version"`
	// At is when the rotation happened.
	At time.Time `json:"at"`
	// StaleMeanLL and FreshMeanLL are the mean per-address log-likelihoods
	// of the replaced and published models on the shadow window.
	StaleMeanLL float64 `json:"stale_mean_ll"`
	FreshMeanLL float64 `json:"fresh_mean_ll"`
	// Window is the number of addresses the candidate was judged on.
	Window int `json:"window"`
}

// DriftStatus is the observable state of one model's ingest/drift loop.
type DriftStatus struct {
	// Model is the registry model name.
	Model string `json:"model"`
	// Ingest summarizes the observation buffer.
	Ingest ingest.Stats `json:"ingest"`
	// Evaluations counts drift evaluations so far.
	Evaluations int `json:"evaluations"`
	// Drifting is the detector's current state.
	Drifting bool `json:"drifting"`
	// Retraining is true while a retrain triggered by drift is running.
	Retraining bool `json:"retraining"`
	// Rotations counts models published by the refresh loop.
	Rotations int `json:"rotations"`
	// ShadowRejects counts candidates that failed shadow evaluation.
	ShadowRejects int `json:"shadow_rejects"`
	// LastVerdict is the most recent detector verdict (with its report).
	LastVerdict *drift.Verdict `json:"last_verdict,omitempty"`
	// LastRotation describes the most recent rotation.
	LastRotation *RotationInfo `json:"last_rotation,omitempty"`
	// LastError is the most recent retrain failure, if any.
	LastError string `json:"last_error,omitempty"`
}

// modelStream is the per-model state of the refresh loop.
type modelStream struct {
	name string
	buf  *ingest.Buffer
	det  *drift.Detector
	// win scores buf incrementally; it is the only consumer draining
	// buf's change record.
	win drift.Window

	mu            sync.Mutex
	sinceEval     int
	retraining    bool
	rotations     int
	shadowRejects int
	lastVerdict   *drift.Verdict
	lastRotation  *RotationInfo
	lastError     string
}

// Refresher ties ingest buffers, drift detection and the training pool
// into the model-refresh feedback loop: observations stream in per model,
// every EvaluateEvery accepted addresses the live window is scored against
// the active model, and — when the detector trips and AutoRefresh is on —
// a background retrain on the live window is shadow-evaluated and
// published as a new registry version. Rotation is atomic from the
// client's point of view: in-flight requests keep the *core.Model they
// resolved, new requests resolve the fresh version.
type Refresher struct {
	reg  *registry.Registry
	pool *Pool
	opts RefreshOptions

	// Observability wiring, installed by serve.New before traffic (tests
	// constructing a bare Refresher get a nop logger and nil-safe metrics).
	logger *slog.Logger
	// stageHist receives per-stage retrain build timings (the same
	// eip_training_stage_seconds histograms client training feeds).
	stageHist      map[string]*obs.Histogram
	retrains       *obs.Counter
	retrainSeconds *obs.Histogram
	// tracer mints the refresh loop's own root traces: a retrain outlives
	// the request that triggered it, so it gets a fresh trace linked back
	// by a trigger_trace_id attribute instead of joining the request's.
	// Nil (bare test Refreshers) is fine — every trace call is nil-safe.
	tracer *trace.Tracer

	mu      sync.Mutex
	streams map[string]*modelStream
}

// NewRefresher returns a Refresher publishing through reg and running
// retrains on pool (the same bounded pool client-requested training uses,
// so refresh work and client work share the machine instead of
// oversubscribing it).
func NewRefresher(reg *registry.Registry, pool *Pool, opts RefreshOptions) *Refresher {
	return &Refresher{
		reg:     reg,
		pool:    pool,
		opts:    opts,
		logger:  obs.NopLogger(),
		streams: make(map[string]*modelStream),
	}
}

// event logs one loop event (an evaluation that trips or clears the
// detector, a rotation, a shadow rejection) as an Info "refresh" record.
func (r *Refresher) event(model, event, detail string) {
	r.logger.Info("refresh", "model", model, "event", event, "detail", detail)
}

// stream returns (creating if needed) the per-model stream. The model must
// exist in the registry — observations for unknown models are an error,
// not a silent buffer.
func (r *Refresher) stream(name string) (*modelStream, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if s, ok := r.streams[name]; ok {
		return s, nil
	}
	if _, err := r.reg.Versions(name); err != nil {
		return nil, err
	}
	s := &modelStream{
		name: name,
		buf:  ingest.New(r.opts.Ingest),
		det:  drift.NewDetector(r.opts.Drift),
	}
	r.streams[name] = s
	return s, nil
}

// ObserveResult summarizes one Observe call.
type ObserveResult struct {
	// Accepted is how many addresses entered the window (always the
	// batch size: the per-/64 cap replaces a prefix's oldest entry
	// rather than rejecting; displacements appear in ingest.Stats.Deduped).
	Accepted int
	// Evaluated is true when this batch crossed the evaluation interval
	// and drift was scored.
	Evaluated bool
	// Verdict is the evaluation's outcome when Evaluated.
	Verdict *drift.Verdict
}

// Observe feeds observed addresses into the named model's window and runs
// a drift evaluation whenever EvaluateEvery accepted observations have
// accumulated since the last one. The context carries the caller's trace;
// an evaluation this batch trips appears as a child span under it.
func (r *Refresher) Observe(ctx context.Context, name string, addrs []ip6.Addr) (ObserveResult, error) {
	s, err := r.stream(name)
	if err != nil {
		return ObserveResult{}, err
	}
	res := ObserveResult{Accepted: s.buf.AddBatch(addrs)}

	s.mu.Lock()
	s.sinceEval += res.Accepted
	due := s.sinceEval >= r.opts.evaluateEvery()
	if due {
		s.sinceEval = 0
	}
	s.mu.Unlock()
	if !due {
		return res, nil
	}

	v, err := r.Evaluate(ctx, name)
	if err != nil {
		return res, err
	}
	res.Evaluated = true
	res.Verdict = &v
	return res, nil
}

// Evaluate scores the named model's current window against its active
// version, feeds the detector, and — when drifted and AutoRefresh is on —
// kicks a background retrain. It is also the hook for operators to force
// an evaluation regardless of the observation counter. The score is the
// report drift.Score gives on a snapshot of the window, computed by the
// stream's drift.Window from the slots written since the last evaluation.
func (r *Refresher) Evaluate(ctx context.Context, name string) (drift.Verdict, error) {
	span := requestSpan(ctx).StartChild("drift.evaluate")
	defer span.Finish()
	span.SetAttr("model", name)
	s, err := r.stream(name)
	if err != nil {
		span.SetError(err.Error())
		return drift.Verdict{}, err
	}
	m, _, err := r.reg.Get(name)
	if err != nil {
		span.SetError(err.Error())
		return drift.Verdict{}, err
	}
	rep, err := s.win.Score(m, s.buf)
	if err != nil {
		span.SetError(err.Error())
		return drift.Verdict{}, err
	}
	v := s.det.Observe(rep)
	span.SetFloat("score", rep.Score)
	span.SetBool("drifting", v.Drifting)

	s.mu.Lock()
	s.lastVerdict = &v
	shouldRetrain := v.Drifting && r.opts.AutoRefresh && !s.retraining
	if shouldRetrain {
		s.retraining = true
	}
	s.mu.Unlock()

	switch {
	case v.Entered:
		r.event(name, "drift-entered", v.Reason)
	case v.Exited:
		r.event(name, "drift-exited", v.Reason)
	}
	if shouldRetrain {
		span.SetBool("retrain_started", true)
		go r.retrain(s, traceIDString(ctx))
	}
	return v, nil
}

// retrain rebuilds the model on the live window, shadow-evaluates the
// candidate against the active version, and publishes it when it wins.
// Runs on the shared training pool; the stream's retraining flag is held
// for the duration so only one refresh per model is in flight.
//
// The whole chain runs under its own root trace ("refresh.retrain") with
// the triggering request's trace ID as an attribute: pool queue wait,
// the build with its pipeline stages as children, shadow evaluation and
// rotation. Failures and shadow rejections force the trace into the
// flight recorder; the trace ID becomes the retrain-latency exemplar.
func (r *Refresher) retrain(s *modelStream, triggerTraceID string) {
	root := r.tracer.StartRoot("refresh.retrain", trace.SpanContext{})
	root.SetAttr("model", s.name)
	if triggerTraceID != "" {
		root.SetAttr("trigger_trace_id", triggerTraceID)
	}
	var rootID string
	if tid := root.TraceID(); tid.IsValid() {
		rootID = tid.String()
	}
	var rejected string
	start := time.Now()
	ran := false
	err := r.pool.Do(context.Background(), func() error {
		ran = true
		root.RecordChild("pool.wait", time.Since(start))
		active, _, err := r.reg.Get(s.name)
		if err != nil {
			return err // model deleted since the evaluation
		}
		window := s.buf.Snapshot()
		if len(window) == 0 {
			return errors.New("empty observation window")
		}
		opts := active.Opts
		trainSpan := root.StartChild("train")
		trainSpan.SetInt("window", int64(len(window)))
		opts.OnStage = stageHook(r.stageHist, trainSpan, r.logger,
			"model", s.name, "origin", "refresh", "trace_id", rootID)
		candidate, err := core.Build(window, opts)
		if err != nil {
			trainSpan.SetError(err.Error())
			trainSpan.Finish()
			return fmt.Errorf("retraining: %w", err)
		}
		trainSpan.Finish()

		// Shadow evaluation on a fresh window: the candidate must fit the
		// live distribution better than the model it would replace. The
		// snapshot is re-taken so observations that arrived during the
		// (potentially long) build count against the candidate too.
		// drift.MeanLogLikelihood applies the same Prefix64Only masking as
		// Score, so staleLL and freshLL are on the same scale as every
		// evaluation's MeanLogLikelihood.
		shadowSpan := root.StartChild("shadow.eval")
		shadow := s.buf.Snapshot()
		staleLL := drift.MeanLogLikelihood(active, shadow)
		freshLL := drift.MeanLogLikelihood(candidate, shadow)
		shadowSpan.SetFloat("stale_ll", staleLL)
		shadowSpan.SetFloat("fresh_ll", freshLL)
		shadowSpan.SetInt("window", int64(len(shadow)))
		if freshLL <= staleLL+r.opts.ShadowMargin {
			rejected = fmt.Sprintf("candidate mean LL %.3f <= active %.3f + margin %.3f",
				freshLL, staleLL, r.opts.ShadowMargin)
			shadowSpan.SetBool("rejected", true)
			shadowSpan.Finish()
			// A rejection means compute was burned for nothing publishable —
			// exactly the trace an operator wants retained.
			root.ForceKeep()
			return nil
		}
		shadowSpan.Finish()

		rotateSpan := root.StartChild("rotate")
		info, err := r.reg.Put(s.name, candidate)
		if err != nil {
			rotateSpan.SetError(err.Error())
			rotateSpan.Finish()
			return fmt.Errorf("publishing: %w", err)
		}
		rotateSpan.SetInt("version", int64(info.Version))
		rotateSpan.Finish()
		rot := &RotationInfo{
			Version:     info.Version,
			At:          info.Created,
			StaleMeanLL: staleLL,
			FreshMeanLL: freshLL,
			Window:      len(shadow),
		}
		s.det.Reset()
		s.mu.Lock()
		s.rotations++
		s.lastRotation = rot
		s.lastError = ""
		s.mu.Unlock()
		r.event(s.name, "rotated", fmt.Sprintf("v%d: mean LL %.3f -> %.3f on %d addresses",
			info.Version, staleLL, freshLL, len(shadow)))
		return nil
	})

	if ran {
		// Count only retrains that actually ran (ErrBusy sheds before fn);
		// the duration includes the pool queue wait — it is the drift-to-
		// fresh-model latency an operator cares about. The trace ID links
		// the latency observation to the retained trace as its exemplar.
		if r.retrains != nil {
			r.retrains.Inc()
		}
		if r.retrainSeconds != nil {
			r.retrainSeconds.ObserveExemplar(time.Since(start).Seconds(), rootID)
		}
	}
	if err != nil {
		root.SetError(err.Error())
	}
	root.Finish()

	s.mu.Lock()
	s.retraining = false
	if rejected != "" {
		s.shadowRejects++
		s.lastError = ""
	}
	if err != nil {
		s.lastError = err.Error()
	}
	s.mu.Unlock()
	switch {
	case errors.Is(err, ErrBusy):
		// Pool saturated by client trainings: the next drifting
		// evaluation retries.
		r.event(s.name, "retrain-deferred", "training pool busy")
	case err != nil:
		r.event(s.name, "retrain-failed", err.Error())
	case rejected != "":
		r.event(s.name, "shadow-rejected", rejected)
	}
}

// Status returns the named model's drift status; ok is false when the
// model has received no observations.
func (r *Refresher) Status(name string) (DriftStatus, bool) {
	r.mu.Lock()
	s, ok := r.streams[name]
	r.mu.Unlock()
	if !ok {
		return DriftStatus{}, false
	}
	return s.status(), true
}

// status reads the stream's observable state, the one read Status and
// collect share.
func (s *modelStream) status() DriftStatus {
	drifting, evaluations := s.det.State()
	s.mu.Lock()
	defer s.mu.Unlock()
	return DriftStatus{
		Model:         s.name,
		Ingest:        s.buf.Stats(),
		Evaluations:   evaluations,
		Drifting:      drifting,
		Retraining:    s.retraining,
		Rotations:     s.rotations,
		ShadowRejects: s.shadowRejects,
		LastVerdict:   s.lastVerdict,
		LastRotation:  s.lastRotation,
		LastError:     s.lastError,
	}
}

// statuses returns the status of every stream, sorted by model name.
func (r *Refresher) statuses() []DriftStatus {
	r.mu.Lock()
	streams := make([]*modelStream, 0, len(r.streams))
	for _, s := range r.streams {
		streams = append(streams, s)
	}
	r.mu.Unlock()
	out := make([]DriftStatus, len(streams))
	for i, s := range streams {
		out[i] = s.status()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Model < out[j].Model })
	return out
}

// collect emits per-model ingest/drift/refresh series for one scrape.
// Per-model series are collector-driven rather than registered, so a
// Forget (model delete) stops emitting the model's series on the next
// scrape instead of leaking them forever. Streams are sorted by name for
// deterministic exposition output.
func (r *Refresher) collect(e *obs.Expo) {
	for _, st := range r.statuses() {
		in, name := st.Ingest, st.Model
		e.Gauge("eip_ingest_window", "Addresses currently in the model's observation window.", float64(in.Window), "model", name)
		e.Gauge("eip_ingest_window_capacity", "Configured observation window size.", float64(in.WindowCapacity), "model", name)
		e.Gauge("eip_ingest_prefixes64", "Distinct /64 prefixes in the window.", float64(in.Prefixes64), "model", name)
		e.Counter("eip_ingest_observed_total", "Addresses offered to the model's window.", float64(in.Observed), "model", name)
		e.Counter("eip_ingest_cap_displacements_total", "Same-/64 window entries displaced early by the per-/64 cap.", float64(in.Deduped), "model", name)
		e.Counter("eip_ingest_evictions_total", "Window slots overwritten by newer observations.", float64(in.Evicted), "model", name)
		e.Gauge("eip_drift_drifting", "1 while the detector flags the model as drifted.", b2f(st.Drifting), "model", name)
		e.Counter("eip_drift_evaluations_total", "Drift evaluations run for the model.", float64(st.Evaluations), "model", name)
		if st.LastVerdict != nil {
			e.Gauge("eip_drift_score", "Drift score of the most recent evaluation (maximum per-segment divergence).", st.LastVerdict.Report.Score, "model", name)
		}
		e.Counter("eip_refresh_rotations_total", "Models published by the refresh loop.", float64(st.Rotations), "model", name)
		e.Counter("eip_refresh_shadow_rejects_total", "Retrained candidates that failed shadow evaluation.", float64(st.ShadowRejects), "model", name)
		e.Gauge("eip_refresh_retraining", "1 while a drift-triggered retrain is in flight.", b2f(st.Retraining), "model", name)
	}
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// Forget drops the named model's stream (after a registry delete).
func (r *Refresher) Forget(name string) {
	r.mu.Lock()
	delete(r.streams, name)
	r.mu.Unlock()
}
