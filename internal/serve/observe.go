package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"

	"entropyip/internal/dataset"
	"entropyip/internal/ip6"
	"entropyip/internal/obs/trace"
	"entropyip/internal/wire"
)

// This file is POST /v1/models/{name}/observe: one ingest loop (observe)
// behind both body encodings. The encodings differ only in the
// observeBody that reads their addresses.

// observeLine is one NDJSON line of POST /v1/models/{name}/observe.
type observeLine struct {
	Addr string `json:"addr"`
}

// ObserveResponse is the body of a successful observe request.
type ObserveResponse struct {
	// Accepted is how many addresses entered the model's window (per-/64
	// cap displacements are visible in Drift.Ingest.Deduped, not here:
	// a capped observation replaces its prefix's oldest entry rather
	// than being dropped).
	Accepted int `json:"accepted"`
	// Invalid is how many lines failed to parse (they are skipped, not
	// fatal: one bad line must not void a traffic batch).
	Invalid int `json:"invalid"`
	// Evaluated is true when this batch triggered a drift evaluation.
	Evaluated bool `json:"evaluated"`
	// Drift is the model's drift status after the batch.
	Drift DriftStatus `json:"drift"`
}

// observeBatchSize bounds how many parsed addresses accumulate before
// being pushed into the buffer, so arbitrarily large bodies stream
// through bounded memory.
const observeBatchSize = 4096

// observeBatchPool reuses the fixed-size per-request parse batches of
// /observe across requests: at traffic rate the handler is called
// constantly, and a 64 KiB address batch per request would be
// steady-state garbage. Ownership rule: the batch slice never escapes
// the handler — Refresher.Observe (via Buffer.AddBatch) copies what it
// keeps — so returning it to the pool on exit is safe.
var observeBatchPool = sync.Pool{
	New: func() interface{} {
		b := make([]ip6.Addr, 0, observeBatchSize)
		return &b
	},
}

// observeBody reads the addresses of one /observe request body.
type observeBody interface {
	// next returns the body's next address, or io.EOF after the last
	// one. Any other error rejects the request: 413 when it wraps an
	// *http.MaxBytesError, else 400 with the error's text.
	next() (ip6.Addr, error)
	// invalid returns how many records were skipped as unparseable.
	invalid() int
}

// handleObserve ingests observed addresses for a model. The
// Content-Type selects the body encoding: the framed binary encoding
// of internal/wire, or NDJSON (the default). Addresses stream into the
// model's observation window in bounded batches; the response reports
// accept/invalid counts and the drift status after the batch.
func (s *Server) handleObserve(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	// Existence up front: a typoed model name must 404 whatever the body
	// holds (a delete racing the request still surfaces through the
	// refresher's own lookup in observeFlush).
	if _, err := s.reg.Versions(name); err != nil {
		writeRegistryError(w, r, err)
		return
	}
	body := http.MaxBytesReader(w, r.Body, s.opts.maxBodyBytes())
	if isBinaryContentType(r.Header.Get("Content-Type")) {
		s.encRequests[routeObserve][encBinary].Add(1)
		w.Header().Set("X-Encoding", encBinary.String())
		bb := binaryBodyPool.Get().(*binaryBody)
		defer binaryBodyPool.Put(bb)
		bb.reset(body)
		s.observe(w, r, name, bb)
		return
	}
	s.encRequests[routeObserve][encNDJSON].Add(1)
	w.Header().Set("X-Encoding", encNDJSON.String())
	nb := ndjsonBodyPool.Get().(*ndjsonBody)
	defer ndjsonBodyPool.Put(nb)
	nb.reset(body)
	s.observe(w, r, name, nb)
}

// observe is the one ingest loop: it reads body to the end, pushes the
// addresses into the model's window in pooled batches and answers the
// request. The observe.ingest span covers the whole read, including
// any drift evaluation a batch trips, which appears as its child (the
// span rides the context into the refresher).
func (s *Server) observe(w http.ResponseWriter, r *http.Request, name string, body observeBody) {
	var out ObserveResponse
	span := requestSpan(r.Context()).StartChild("observe.ingest")
	ctx := trace.ContextWithSpan(r.Context(), span)
	// Accepted addresses are counted batch by batch in observeFlush (so
	// early error returns still count what entered the window); invalid
	// records are counted once on the way out.
	defer func() {
		invalid := body.invalid()
		s.observeInvalid.Add(uint64(invalid))
		span.SetInt("accepted", int64(out.Accepted))
		span.SetInt("invalid", int64(invalid))
		span.Finish()
	}()
	batchp := observeBatchPool.Get().(*[]ip6.Addr)
	batch := (*batchp)[:0]
	defer func() {
		*batchp = batch[:0]
		observeBatchPool.Put(batchp)
	}()
	for {
		a, err := body.next()
		if err == io.EOF {
			break
		}
		if err != nil {
			var tooLarge *http.MaxBytesError
			if errors.As(err, &tooLarge) {
				writeError(w, r, http.StatusRequestEntityTooLarge, "body exceeds %d bytes", tooLarge.Limit)
			} else {
				writeError(w, r, http.StatusBadRequest, "%v", err)
			}
			return
		}
		batch = append(batch, a)
		if len(batch) >= observeBatchSize && !s.observeFlush(ctx, w, r, name, &batch, &out) {
			return
		}
	}
	if !s.observeFlush(ctx, w, r, name, &batch, &out) {
		return
	}
	out.Invalid = body.invalid()
	out.Drift, _ = s.refresher.Status(name)
	writeJSON(w, http.StatusOK, out)
}

// observeFlush pushes the accumulated batch into the model's window,
// folding the result into out. On registry errors it answers the
// request itself and returns false.
func (s *Server) observeFlush(ctx context.Context, w http.ResponseWriter, r *http.Request, name string, batch *[]ip6.Addr, out *ObserveResponse) bool {
	if len(*batch) == 0 {
		return true
	}
	res, err := s.refresher.Observe(ctx, name, *batch)
	*batch = (*batch)[:0]
	if err != nil {
		writeRegistryError(w, r, err)
		return false
	}
	out.Accepted += res.Accepted
	out.Evaluated = out.Evaluated || res.Evaluated
	s.observeAccepted.Add(uint64(res.Accepted))
	return true
}

// ndjsonBody reads an NDJSON body: each line either an {"addr": "..."}
// object, a JSON string, or a bare textual address (dataset file
// format) — so both API clients and `curl --data-binary @addrs.txt`
// work. Lines are scanned as byte slices: bare lines, the traffic fast
// path, parse without any per-line allocation; only JSON-framed lines
// pay encoding/json. Unparseable lines are skipped and counted.
type ndjsonBody struct {
	sc      bufio.Scanner
	buf     []byte // the scanner's initial line buffer, kept across bodies
	skipped int
}

// ndjsonBodyPool reuses NDJSON body readers (one 64 KiB line buffer
// each) across /observe requests.
var ndjsonBodyPool = sync.Pool{
	New: func() interface{} { return &ndjsonBody{buf: make([]byte, 64*1024)} },
}

// reset points the reader at a new body.
func (n *ndjsonBody) reset(src io.Reader) {
	n.sc = *bufio.NewScanner(src)
	n.sc.Buffer(n.buf, dataset.MaxLineBytes)
	n.skipped = 0
}

func (n *ndjsonBody) invalid() int { return n.skipped }

func (n *ndjsonBody) next() (ip6.Addr, error) {
	for n.sc.Scan() {
		line := bytes.TrimSpace(n.sc.Bytes())
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		var a ip6.Addr
		var err error
		switch line[0] {
		case '{':
			var ol observeLine
			//eip:alloc-ok observe ingest is the documented slow path; object lines are schema-flexible
			if err = json.Unmarshal(line, &ol); err == nil {
				a, err = ip6.ParseAddr(ol.Addr)
			}
		case '"':
			var raw string
			//eip:alloc-ok bare-string lines need full JSON unescaping; same slow path
			if err = json.Unmarshal(line, &raw); err == nil {
				a, err = ip6.ParseAddr(raw)
			}
		default:
			// Bare lines take the dataset file format — the same parser
			// -ingest-file uses — so trailing comments and /len prefix
			// notation work identically over both feeds.
			var ok bool
			a, ok, err = dataset.ParseLineBytes(line)
			if err == nil && !ok {
				continue
			}
		}
		if err != nil {
			n.skipped++
			continue
		}
		return a, nil
	}
	if err := n.sc.Err(); err != nil {
		//eip:alloc-ok a read error ends the request; once per body
		return ip6.Addr{}, fmt.Errorf("reading body: %w", err)
	}
	return ip6.Addr{}, io.EOF
}

// binaryBody reads a framed binary body. Malformed framing rejects the
// request — a binary body is machine-written, so unlike text lines a bad
// frame is a protocol error, not traffic noise to skip (it never counts
// invalid records).
type binaryBody struct {
	rd  wire.Reader
	src io.Reader  // body whose header is still unread; nil after
	f   wire.Frame // current address frame
	i   int        // next record of f
}

// binaryBodyPool reuses binary body readers (one fixed payload buffer
// each) across /observe requests.
var binaryBodyPool = sync.Pool{
	New: func() interface{} { return new(binaryBody) },
}

// reset points the reader at a new body; its header is read by the
// first next, so header errors take the same path as frame errors.
func (b *binaryBody) reset(src io.Reader) {
	b.src, b.f, b.i = src, wire.Frame{}, 0
}

func (b *binaryBody) invalid() int { return 0 }

func (b *binaryBody) next() (ip6.Addr, error) {
	if b.src != nil {
		err := b.rd.Reset(b.src)
		b.src = nil
		if err != nil {
			//eip:alloc-ok a bad header rejects the request; once per body
			return ip6.Addr{}, fmt.Errorf("invalid binary body: %w", err)
		}
		if b.rd.Header().Prefixes() {
			return ip6.Addr{}, errObservePrefixes
		}
	}
	for b.i >= b.f.Count {
		f, err := b.rd.Next()
		if err == io.EOF {
			return ip6.Addr{}, io.EOF
		}
		if err != nil {
			//eip:alloc-ok a bad frame rejects the request; once per body
			return ip6.Addr{}, fmt.Errorf("invalid binary body: %w", err)
		}
		switch f.Kind {
		case wire.KindAddrs:
			b.f, b.i = f, 0
		case wire.KindEnd, wire.KindSeed, wire.KindTrace:
			// No-ops here. A replayed generate capture carries Seed and
			// Trace frames, and reading on past each End drains every
			// stream of a multi-stream body (a saved batch response).
		default:
			//eip:alloc-ok an unexpected frame rejects the request; once per body
			return ip6.Addr{}, fmt.Errorf("unexpected frame kind 0x%02x in observe body", f.Kind)
		}
	}
	a := b.f.Addr(b.i)
	b.i++
	return a, nil
}

// errObservePrefixes rejects a binary body whose header declares a
// prefix stream.
var errObservePrefixes = errors.New("observe ingests addresses; prefix streams are not accepted")
