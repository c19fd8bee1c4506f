package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"

	"entropyip/internal/ip6"
	"entropyip/internal/obs/trace"
	"entropyip/internal/wire"
)

// This file is the encoding negotiation between NDJSON and the framed
// binary encoding of internal/wire (Accept on generate, Content-Type on
// observe) and the binary /observe decode path. Generate responses in
// either encoding come from the one producer loop in generate.go; the
// binary side of it is wireSink.

// encoding is a negotiated request/response encoding.
type encoding int

const (
	encNDJSON encoding = iota
	encBinary
)

// Row indexes into Server.encRequests (columns are the encoding values).
const (
	routeGenerate = 0
	routeObserve  = 1
)

func (e encoding) String() string {
	if e == encBinary {
		return "binary"
	}
	return "ndjson"
}

// contentType returns the media type the encoding is served under.
func (e encoding) contentType() string {
	if e == encBinary {
		return wire.ContentType
	}
	return "application/x-ndjson"
}

// negotiateGenerateEncoding picks the generate response encoding from
// the Accept header. The binary type wins whenever it appears; an absent
// or wildcard Accept keeps the NDJSON default; an Accept that admits
// neither encoding is a 406. Quality parameters are ignored — a client
// that sends q-values still gets the most capable encoding it listed.
func negotiateGenerateEncoding(r *http.Request) (encoding, error) {
	accept := r.Header.Get("Accept")
	if accept == "" {
		return encNDJSON, nil
	}
	ndjsonOK := false
	for rest := accept; rest != ""; {
		var part string
		part, rest, _ = strings.Cut(rest, ",")
		if i := strings.IndexByte(part, ';'); i >= 0 {
			part = part[:i]
		}
		part = strings.TrimSpace(part)
		switch {
		case strings.EqualFold(part, wire.ContentType):
			return encBinary, nil
		case strings.EqualFold(part, "application/x-ndjson"),
			strings.EqualFold(part, "application/json"),
			strings.EqualFold(part, "application/*"),
			part == "*/*":
			ndjsonOK = true
		}
	}
	if ndjsonOK {
		return encNDJSON, nil
	}
	return 0, fmt.Errorf("Accept %q admits no supported encoding (application/x-ndjson, %s)", accept, wire.ContentType)
}

// isBinaryContentType reports whether a request body is declared as the
// binary wire encoding.
func isBinaryContentType(ct string) bool {
	if i := strings.IndexByte(ct, ';'); i >= 0 {
		ct = ct[:i]
	}
	return strings.EqualFold(strings.TrimSpace(ct), wire.ContentType)
}

// wireReaderPool reuses binary body decoders (one fixed payload buffer
// each) across /observe requests.
var wireReaderPool = sync.Pool{
	New: func() interface{} { return new(wire.Reader) },
}

// observeBinary ingests a framed binary /observe body: address frames
// stream into the model's observation window in the same bounded
// batches as the text path. Malformed framing rejects the request — a
// binary body is machine-written, so unlike text lines a bad frame is a
// protocol error, not traffic noise to skip (there is no Invalid count
// on this path).
func (s *Server) observeBinary(w http.ResponseWriter, r *http.Request, name string) {
	body := http.MaxBytesReader(w, r.Body, s.opts.maxBodyBytes())
	rd := wireReaderPool.Get().(*wire.Reader)
	defer wireReaderPool.Put(rd)
	if err := rd.Reset(body); err != nil {
		writeWireError(w, r, err)
		return
	}
	if rd.Header().Prefixes() {
		writeError(w, r, http.StatusBadRequest, "observe ingests addresses; prefix streams are not accepted")
		return
	}

	var out ObserveResponse
	// Same ingest span as the NDJSON path: it covers the frame decode and
	// any drift evaluation a batch trips (a child, via the context).
	span := requestSpan(r.Context()).StartChild("observe.ingest")
	ctx := trace.ContextWithSpan(r.Context(), span)
	defer func() {
		span.SetInt("accepted", int64(out.Accepted))
		span.Finish()
	}()
	batchp := observeBatchPool.Get().(*[]ip6.Addr)
	batch := (*batchp)[:0]
	defer func() {
		*batchp = batch[:0]
		observeBatchPool.Put(batchp)
	}()
decode:
	for {
		f, err := rd.Next()
		switch {
		case err == io.EOF:
			break decode
		case err != nil:
			writeWireError(w, r, err)
			return
		}
		switch f.Kind {
		case wire.KindAddrs:
			for i := 0; i < f.Count; i++ {
				batch = append(batch, f.Addr(i))
				if len(batch) >= observeBatchSize {
					if !s.observeFlush(ctx, w, r, name, &batch, &out) {
						return
					}
				}
			}
		case wire.KindEnd:
			// Stream complete; keep reading so multi-stream bodies (e.g. a
			// saved batch response piped back) drain every stream's End.
		case wire.KindSeed:
			// Seed frames are meaningful on generate responses only; a
			// replayed capture may carry them, and they are no-ops here.
		case wire.KindTrace:
			// Trace frames identify the generate response they came from;
			// a replayed capture carries one, and it is a no-op here.
		default:
			writeError(w, r, http.StatusBadRequest,
				"unexpected frame kind 0x%02x in observe body", f.Kind)
			return
		}
	}
	if !s.observeFlush(ctx, w, r, name, &batch, &out) {
		return
	}
	out.Drift, _ = s.refresher.Status(name)
	writeJSON(w, http.StatusOK, out)
}

// writeWireError maps binary-decode failures onto the error envelope:
// body-size overruns are 413 like everywhere else; anything wrong with
// the framing itself is a 400.
func writeWireError(w http.ResponseWriter, r *http.Request, err error) {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		writeError(w, r, http.StatusRequestEntityTooLarge, "body exceeds %d bytes", tooLarge.Limit)
		return
	}
	writeError(w, r, http.StatusBadRequest, "invalid binary body: %v", err)
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
