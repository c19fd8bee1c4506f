package serve

import (
	"bufio"
	"context"
	crand "crypto/rand"
	"encoding/binary"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"entropyip/internal/admission"
	"entropyip/internal/core"
	"entropyip/internal/ip6"
	"entropyip/internal/obs/trace"
	"entropyip/internal/registry"
	"entropyip/internal/wire"
)

// This file is POST /v1/models/{name}/generate: request validation,
// admission, and the one producer loop (generateStreams) behind every
// response shape — NDJSON or binary, single-stream or batch. The shapes
// differ only in the candidateSink each stream writes through.

// GenerateRequest is the body of POST /v1/models/{name}/generate.
type GenerateRequest struct {
	// Version selects a model version; 0 means latest.
	Version int `json:"version,omitempty"`
	// Count is the number of candidates to generate (the paper uses 1M).
	Count int `json:"count"`
	// Seed makes generation deterministic for a fixed model and options.
	// When omitted (null), the server derives a random seed — so clients
	// that do not care about reproducibility get independent streams
	// instead of everyone receiving the identical "random" candidates —
	// and echoes it in the X-Seed response header.
	Seed *int64 `json:"seed,omitempty"`
	// Evidence optionally constrains generation to segment values.
	Evidence map[string]string `json:"evidence,omitempty"`
	// Prefixes switches from candidate addresses to candidate /64
	// prefixes (§5.6).
	Prefixes bool `json:"prefixes,omitempty"`
	// MaxAttemptsFactor bounds the search for unique candidates; see
	// core.GenerateOptions. Values above MaxAttemptsFactorLimit are
	// rejected — the factor multiplies server CPU on low-support models.
	MaxAttemptsFactor int `json:"max_attempts_factor,omitempty"`
	// Streams switches to batch mode: each entry describes one
	// independently-seeded candidate stream, and the response carries all
	// of them interleaved (frames tagged with a stream index in the binary
	// encoding, {"stream":i,...} lines in NDJSON). Mutually exclusive with
	// the top-level Count/Seed/Evidence/MaxAttemptsFactor; Version and
	// Prefixes stay request-wide.
	Streams []GenerateStreamSpec `json:"streams,omitempty"`
}

// GenerateStreamSpec is one stream of a batch generate request.
type GenerateStreamSpec struct {
	// Count is the number of candidates this stream yields.
	Count int `json:"count"`
	// Seed makes this stream deterministic; omitted means the server
	// derives one (echoed comma-joined in X-Seed, and in this stream's
	// Seed frame in the binary encoding).
	Seed *int64 `json:"seed,omitempty"`
	// Evidence optionally constrains this stream to segment values.
	Evidence map[string]string `json:"evidence,omitempty"`
	// MaxAttemptsFactor bounds this stream's unique-candidate search.
	MaxAttemptsFactor int `json:"max_attempts_factor,omitempty"`
}

// MaxAttemptsFactorLimit caps the per-request MaxAttemptsFactor.
const MaxAttemptsFactorLimit = 1000

// MaxGenerateStreams caps the streams of one batch generate request at
// what the wire format's frame stream index can address.
const MaxGenerateStreams = wire.MaxStreams

// maxConcurrentStreams bounds how many of a batch request's streams
// generate at once; the rest start as earlier ones finish. Frames (or
// NDJSON lines) interleave only among running streams, so this also
// bounds the demultiplexing state a client holds at once.
const maxConcurrentStreams = 8

// GenerateItem is one line of the NDJSON generate stream:
//
//	{"addr":"2001:db8::1"}                  single-stream candidate
//	{"stream":0,"addr":"2001:db8::1"}       batch candidate
//	{"stream":1,"prefix":"2001:db8::/64"}   batch candidate, prefix mode
//	{"stream":0,"done":true}                batch stream completed
//	{"stream":1,"error":"...","trace_id":"..."}  stream failed or drained
//
// Lines of different batch streams interleave arbitrarily; lines of one
// stream are in its deterministic order.
type GenerateItem struct {
	// Addr is a candidate address (empty in prefix mode).
	Addr string `json:"addr,omitempty"`
	// Prefix is a candidate /64 (empty in address mode).
	Prefix string `json:"prefix,omitempty"`
	// Error is set on a final trailer line when generation failed after
	// the stream had started; a stream that simply ends short of count
	// means the model's support was exhausted, not an error.
	Error string `json:"error,omitempty"`
	// Stream is the stream index on batch-response lines; nil on
	// single-stream responses (whose lines carry no stream key).
	Stream *int `json:"stream,omitempty"`
	// Done marks a batch stream's final line. Single-stream responses
	// signal completion by ending the body instead.
	Done bool `json:"done,omitempty"`
	// TraceID accompanies Error on trailer lines: the request's trace ID,
	// usable against /v1/debug/traces and server logs.
	TraceID string `json:"trace_id,omitempty"`
}

// drainMessage is the in-band error emitted on streams Drain cuts short.
const drainMessage = "server shutting down"

// handleGenerate streams candidates with bounded memory in the encoding
// the Accept header negotiates — NDJSON by default, the framed binary
// encoding of internal/wire when the client asks for it — single-stream
// or batch (req.Streams). Each candidate is encoded as it is drawn from
// the model and written in flushed chunks, so the response size never
// accumulates server-side.
func (s *Server) handleGenerate(w http.ResponseWriter, r *http.Request) {
	var req GenerateRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	enc, err := negotiateGenerateEncoding(r)
	if err != nil {
		writeError(w, r, http.StatusNotAcceptable, "%v", err)
		return
	}
	streams, batch, err := s.resolveStreams(&req)
	if err != nil {
		writeError(w, r, http.StatusBadRequest, "%v", err)
		return
	}
	// Admission, gates 2 and 3 (the rate gate ran in the middleware):
	// charge the tenant's generation budget with the request's full
	// candidate count, then claim a tenant concurrency slot with bounded
	// queueing. A shed after the charge refunds it — the tenant generated
	// nothing.
	tenant := tenantFrom(r.Context())
	total := 0
	for _, st := range streams {
		total += st.count
	}
	if d := s.adm.ChargeGenerate(tenant, total); !d.OK {
		s.shedResponse(w, r, d)
		return
	}
	releaseSlot, d := s.adm.AcquireSlot(r.Context(), tenant)
	if !d.OK {
		s.adm.RefundGenerate(tenant, total)
		s.shedResponse(w, r, d)
		return
	}
	m, info, err := s.getModel(r.Context(), r.PathValue("name"), req.Version)
	if err != nil {
		releaseSlot()
		s.adm.RefundGenerate(tenant, total)
		writeRegistryError(w, r, err)
		return
	}
	s.encRequests[routeGenerate][enc].Add(1)
	if root := requestSpan(r.Context()); root != nil {
		root.SetAttr("encoding", enc.String())
		root.SetAttr("model", info.Name)
	}
	w.Header().Set("Content-Type", enc.contentType())
	w.Header().Set("X-Model-Version", strconv.Itoa(info.Version))
	// Always echo the seeds in force, so a seedless request can be
	// replayed exactly by passing the header's value(s) back as "seed".
	w.Header().Set("X-Seed", seedHeader(streams))
	w.Header().Set("X-Encoding", enc.String())
	s.generateStreams(w, r, m, info, &req, enc, streams, batch, releaseSlot)
}

// generateStreams runs every stream of one generate request and answers
// it. Each stream encodes through its own candidateSink onto one shared
// lockedSink, so the streams of a batch interleave as whole chunks. A
// single stream runs on the handler goroutine and holds the request's
// admission slot until it ends; a batch hands that slot back and fans out
// through the stream gate (holding it would deadlock a one-slot tenant
// against its own batch).
//
// One error rule covers every shape: a single stream that fails before
// its first candidate answers with the 400 error envelope — nothing has
// reached the client yet, the binary header still sits unflushed in bw —
// and any other failure ends its stream with an in-band error line or
// Error frame.
func (s *Server) generateStreams(w http.ResponseWriter, r *http.Request, m *core.Model, info registry.Info, req *GenerateRequest, enc encoding, streams []resolvedStream, batch bool, release func()) {
	ctx := r.Context()
	root := requestSpan(ctx)
	flusher, _ := w.(http.Flusher)
	bw := bufio.NewWriter(w)
	out := &lockedSink{bw: bw, flusher: flusher, ctx: ctx}
	if enc == encBinary {
		// The stream header, then the request's Trace frame: the handle
		// into /v1/debug/traces for a client holding only the binary body
		// (possibly saved to disk). Both wait in bw for the first chunk; a
		// write this much smaller than bw's buffer cannot fail.
		var flags uint8
		if req.Prefixes {
			flags |= wire.FlagPrefixes
		}
		if batch {
			flags |= wire.FlagBatch
		}
		var hb [wire.HeaderSize + wire.FrameHeaderSize + 16]byte
		b := wire.AppendHeader(hb[:0], wire.Header{Flags: flags, Streams: len(streams), Seed: streams[0].seed})
		if tid := root.TraceID(); tid.IsValid() {
			b = wire.AppendTraceFrame(b, 0, tid)
		}
		_, _ = bw.Write(b)
	}
	traceID := traceIDString(ctx)

	var produced atomic.Int64
	run := func(idx int, span *trace.Span) error {
		defer span.Finish()
		st := streams[idx]
		span.SetInt("stream", int64(idx))
		span.SetInt("count", int64(st.count))
		span.SetInt("seed", st.seed)
		var sink candidateSink
		if enc == encBinary {
			ww := wireWriterPool.Get().(*wire.Writer)
			defer wireWriterPool.Put(ww)
			ww.Reset(out, idx, req.Prefixes, DefaultFlushEvery)
			if batch && ww.Seed(st.seed) != nil {
				return nil
			}
			sink = &wireSink{ww: ww, prefixes: req.Prefixes}
		} else {
			lb := getLineBuf()
			defer putLineBuf(lb)
			sink = newNDJSONSink(out, lb, idx, batch, req.Prefixes, traceID)
		}
		var n int64
		var werr error
		add := func(a ip6.Addr) bool {
			n++
			werr = sink.add(a)
			return werr == nil
		}
		opts := s.generateOptions(ctx, st)
		var err error
		if req.Prefixes {
			err = m.GeneratePrefixesStream(opts, func(p ip6.Prefix) bool { return add(p.Addr()) })
		} else {
			err = m.GenerateStream(opts, add)
		}
		produced.Add(n)
		span.SetInt("produced", n)
		var msg string
		switch {
		case werr != nil || ctx.Err() != nil:
			// The client is gone or the response failed: nothing more can
			// be said on the wire.
			return nil
		case err != nil:
			span.SetError(err.Error())
			if n == 0 && !batch {
				return err
			}
			s.logger.Error("generate failed mid-stream",
				"request_id", requestID(ctx),
				"trace_id", traceID,
				"model", info.Name,
				"version", info.Version,
				"stream", idx,
				"encoding", enc.String(),
				"produced", n,
				"err", err)
			msg = err.Error()
		case s.isDraining() && n < int64(st.count):
			// Drain cut the stream short: say so in-band, so the client
			// can tell the cut from exhausted model support.
			msg = drainMessage
		}
		// A failed close already stuck in lockedSink; no one is left to tell.
		_ = sink.close(msg)
		return nil
	}

	if !batch {
		defer release()
		if err := run(0, root.StartChild("generate.stream")); err != nil {
			writeError(w, r, http.StatusBadRequest, "%v", err)
			return
		}
	} else {
		release()
		gate := s.newStreamGate(ctx)
		var wg sync.WaitGroup
		for i := range streams {
			// Children start before the goroutine handoff (span ownership
			// rule, DESIGN.md §9); their duration therefore includes the
			// slot queue wait, which is part of what the client paid.
			span := root.StartChild("generate.stream")
			wg.Add(1)
			go func(i int, span *trace.Span) {
				defer wg.Done()
				done, ok := gate.acquire(ctx)
				if !ok {
					span.Finish()
					return
				}
				defer done()
				_ = run(i, span)
			}(i, span)
		}
		wg.Wait()
	}
	_ = bw.Flush()
	s.candidates.Add(uint64(produced.Load()))
}

// candidateSink encodes one generate stream in the response's encoding
// and writes it, in whole chunks, to the request's shared lockedSink.
// Ownership: a sink and the pooled buffer under it belong to the one
// goroutine running its stream, and go back to their pool when the stream
// ends; only the lockedSink is shared.
type candidateSink interface {
	// add encodes one candidate: an address, or in prefix mode the /64
	// prefix holding it.
	add(a ip6.Addr) error
	// close ends the stream — cleanly when msg is empty, otherwise with
	// msg as its in-band error — writing out whatever is still buffered.
	close(msg string) error
}

// wireSink encodes a stream as binary wire frames through a pooled
// wire.Writer, which hands each complete frame to the shared sink as one
// write.
type wireSink struct {
	ww       *wire.Writer
	prefixes bool
}

func (s *wireSink) add(a ip6.Addr) error {
	if s.prefixes {
		return s.ww.AddPrefix(ip6.Prefix64(a))
	}
	return s.ww.AddAddr(a)
}

func (s *wireSink) close(msg string) error {
	if msg == "" {
		return s.ww.End()
	}
	return s.ww.Error(msg)
}

// ndjsonSink encodes a stream as NDJSON lines, collecting them in its
// pooled lineBuf and writing each run of DefaultFlushEvery lines to the
// shared sink as one chunk. Batch lines open with the stream tag ({"stream":i,...})
// and the stream ends with a done line; a single stream keeps the
// untagged lines TestGenerateStreamByteIdentity pins and ends by ending
// the body.
type ndjsonSink struct {
	out      io.Writer
	lb       *lineBuf
	open     string // `{`, or `{"stream":i,` in batch mode
	batch    bool
	prefixes bool
	traceID  string
	lines    int
}

func newNDJSONSink(out io.Writer, lb *lineBuf, stream int, batch, prefixes bool, traceID string) *ndjsonSink {
	open := "{"
	if batch {
		open = `{"stream":` + strconv.Itoa(stream) + ","
	}
	return &ndjsonSink{out: out, lb: lb, open: open, batch: batch, prefixes: prefixes, traceID: traceID}
}

func (s *ndjsonSink) add(a ip6.Addr) error {
	b := append(s.lb.b, s.open...)
	if s.prefixes {
		b = append(b, `"prefix":"`...)
		b = ip6.Prefix64(a).AppendString(b)
	} else {
		b = append(b, `"addr":"`...)
		b = a.AppendString(b)
	}
	s.lb.b = append(b, '"', '}', '\n')
	if s.lines++; s.lines < DefaultFlushEvery {
		return nil
	}
	return s.flush()
}

func (s *ndjsonSink) close(msg string) error {
	switch {
	case msg != "":
		s.lb.b = appendErrorFields(append(s.lb.b, s.open...), msg, s.traceID)
	case s.batch:
		s.lb.b = append(append(s.lb.b, s.open...), `"done":true}`+"\n"...)
	}
	return s.flush()
}

// flush writes the buffered lines to the shared sink as one chunk.
func (s *ndjsonSink) flush() error {
	s.lines = 0
	if len(s.lb.b) == 0 {
		return nil
	}
	_, err := s.out.Write(s.lb.b)
	s.lb.b = s.lb.b[:0]
	return err
}

// lockedSink serializes the chunk writes of a request's stream sinks onto
// one buffered response writer and flushes after each, so the client sees
// every chunk as soon as it is complete. Each Write must be one whole
// chunk — a wire frame, or a run of complete NDJSON lines — so the chunks
// of concurrent streams interleave without tearing. The first error
// (including client disconnect) sticks and fails every later write,
// stopping all producers.
type lockedSink struct {
	mu      sync.Mutex
	bw      *bufio.Writer
	flusher http.Flusher
	ctx     context.Context
	err     error
}

func (ls *lockedSink) Write(p []byte) (int, error) {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	if ls.err == nil {
		ls.err = ls.ctx.Err()
	}
	if ls.err != nil {
		return 0, ls.err
	}
	n, err := ls.bw.Write(p)
	if err == nil {
		err = ls.bw.Flush()
	}
	if err != nil {
		ls.err = err
		return n, err
	}
	if ls.flusher != nil {
		ls.flusher.Flush()
	}
	return n, nil
}

// wireWriterPool reuses per-stream binary frame encoders; Reset keeps
// each Writer's frame buffer, so steady state allocates nothing.
var wireWriterPool = sync.Pool{
	New: func() interface{} { return new(wire.Writer) },
}

// resolvedStream is one generate stream after request validation, its
// seed derived when the request omitted one. Evidence stays in request
// form — the engine validates it against the model at generation time,
// per stream.
type resolvedStream struct {
	count       int
	seed        int64
	evidence    core.Evidence
	maxAttempts int
}

// resolveStreams validates a generate request into its stream list and
// reports whether the request was batch-form. Single requests use the
// legacy top-level fields; batch requests move count, seed, evidence and
// max_attempts_factor per stream and must leave the top-level ones
// unset.
func (s *Server) resolveStreams(req *GenerateRequest) ([]resolvedStream, bool, error) {
	maxCount := s.opts.maxGenerateCount()
	if len(req.Streams) == 0 {
		if req.Count <= 0 {
			return nil, false, fmt.Errorf("count must be positive")
		}
		if req.Count > maxCount {
			return nil, false, fmt.Errorf("count %d exceeds limit %d", req.Count, maxCount)
		}
		if req.MaxAttemptsFactor < 0 || req.MaxAttemptsFactor > MaxAttemptsFactorLimit {
			return nil, false, fmt.Errorf("max_attempts_factor must be in 0..%d", MaxAttemptsFactorLimit)
		}
		seed := randomSeed()
		if req.Seed != nil {
			seed = *req.Seed
		}
		return []resolvedStream{{
			count:       req.Count,
			seed:        seed,
			evidence:    core.Evidence(req.Evidence),
			maxAttempts: req.MaxAttemptsFactor,
		}}, false, nil
	}
	if req.Count != 0 || req.Seed != nil || len(req.Evidence) > 0 || req.MaxAttemptsFactor != 0 {
		return nil, true, fmt.Errorf("streams and top-level count/seed/evidence/max_attempts_factor are mutually exclusive")
	}
	if len(req.Streams) > MaxGenerateStreams {
		return nil, true, fmt.Errorf("%d streams exceed limit %d", len(req.Streams), MaxGenerateStreams)
	}
	out := make([]resolvedStream, len(req.Streams))
	total := 0
	for i, st := range req.Streams {
		if st.Count <= 0 {
			return nil, true, fmt.Errorf("streams[%d].count must be positive", i)
		}
		if st.MaxAttemptsFactor < 0 || st.MaxAttemptsFactor > MaxAttemptsFactorLimit {
			return nil, true, fmt.Errorf("streams[%d].max_attempts_factor must be in 0..%d", i, MaxAttemptsFactorLimit)
		}
		total += st.Count
		if total > maxCount {
			return nil, true, fmt.Errorf("total count across streams exceeds limit %d", maxCount)
		}
		seed := randomSeed()
		if st.Seed != nil {
			seed = *st.Seed
		}
		out[i] = resolvedStream{
			count:       st.Count,
			seed:        seed,
			evidence:    core.Evidence(st.Evidence),
			maxAttempts: st.MaxAttemptsFactor,
		}
	}
	return out, true, nil
}

// randomSeed derives a fresh generation seed for requests that omit one.
// It reads the OS entropy source, falling back to the clock if that ever
// fails — seed quality only has to make concurrent clients' streams
// distinct, not be cryptographic.
func randomSeed() int64 {
	var b [8]byte
	if _, err := crand.Read(b[:]); err == nil {
		return int64(binary.LittleEndian.Uint64(b[:]))
	}
	return time.Now().UnixNano()
}

// seedHeader renders the X-Seed value: the stream seeds, comma-joined in
// stream order (a single stream's header is just its seed, as before).
func seedHeader(streams []resolvedStream) string {
	if len(streams) == 1 {
		return strconv.FormatInt(streams[0].seed, 10)
	}
	var b strings.Builder
	for i, st := range streams {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.FormatInt(st.seed, 10))
	}
	return b.String()
}

// generateOptions builds the engine options for one resolved stream.
// Without Stop, a disconnected client would keep the generator spinning
// through duplicate draws until the attempt budget runs out.
func (s *Server) generateOptions(ctx context.Context, st resolvedStream) core.GenerateOptions {
	return core.GenerateOptions{
		Count:             st.count,
		Seed:              st.seed,
		Evidence:          st.evidence,
		MaxAttemptsFactor: st.maxAttempts,
		Stop:              func() bool { return ctx.Err() != nil || s.isDraining() },
	}
}

// streamGate bounds how many of a batch request's streams generate at
// once. With admission slot gating on, every producer claims one of the
// TENANT's slots — per-tenant isolation, so a greedy batch queues behind
// its own tenant's work, not everyone's. Otherwise a per-request
// semaphore of maxConcurrentStreams bounds the fan-out.
type streamGate struct {
	adm    *admission.Controller
	tenant string
	sem    chan struct{}
}

func (s *Server) newStreamGate(ctx context.Context) *streamGate {
	if s.adm != nil && s.opts.Admission.TenantSlots > 0 {
		return &streamGate{adm: s.adm, tenant: tenantFrom(ctx)}
	}
	return &streamGate{sem: make(chan struct{}, maxConcurrentStreams)}
}

// acquire claims one generation slot, blocking until a slot frees or the
// context dies; ok=false means the stream must not run.
func (g *streamGate) acquire(ctx context.Context) (func(), bool) {
	if g.adm != nil {
		return g.adm.WaitSlot(ctx, g.tenant)
	}
	select {
	case g.sem <- struct{}{}:
		return func() { <-g.sem }, true
	case <-ctx.Done():
		return func() {}, false
	}
}
