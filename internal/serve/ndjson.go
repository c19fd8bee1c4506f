package serve

import (
	"encoding/json"
	"sync"
)

// The NDJSON stream of POST /v1/models/{name}/generate used to go through
// encoding/json once per line — an Encoder allocation-and-reflection round
// trip per candidate, dominating the serving cost of the compiled sampler.
// The stream's line shapes are fixed ({"addr":"..."}, {"prefix":"..."},
// {"error":"..."}), so ndjsonSink (generate.go) builds each line in a
// pooled, reusable byte buffer with append-style formatting. Addresses
// and prefixes need no escaping; the one free-text line, the error
// trailer that ends a failed or drained stream, goes through
// encoding/json (appendErrorFields), so clients see exactly the bytes
// the old encoder produced.

// lineBuf is a pooled NDJSON buffer: one stream's lines between chunk
// writes. The pool stores pointers so Put does not allocate a fresh slice
// header per release.
type lineBuf struct {
	b []byte
}

var lineBufPool = sync.Pool{
	New: func() interface{} { return &lineBuf{b: make([]byte, 0, 256)} },
}

// getLineBuf borrows a line buffer from the pool. Callers must return it
// with putLineBuf once no Write of its contents is in flight; retaining
// the buffer (or slices of it) after put is a use-after-reuse bug.
func getLineBuf() *lineBuf { return lineBufPool.Get().(*lineBuf) }

func putLineBuf(lb *lineBuf) {
	// Oversized one-off lines (a huge error message) are dropped instead
	// of pinning their backing array in the pool forever.
	if cap(lb.b) <= 1<<16 {
		lb.b = lb.b[:0]
		lineBufPool.Put(lb)
	}
}

// appendErrorFields finishes the error trailer line of a failed or
// drained stream: dst holds the line's opening ("{", or a batch line's
// `{"stream":i,`), and the error and trace_id members follow. On an
// untagged line the result is byte-identical to
// json.Encoder.Encode(GenerateItem{Error: msg, TraceID: traceID}),
// including omitempty collapsing an all-empty line to "{}". The trace ID
// rides along so a client holding only the truncated stream can pull the
// matching flight-recorder trace and server logs.
func appendErrorFields(dst []byte, msg, traceID string) []byte {
	if msg != "" {
		//eip:alloc-ok once per failed or drained stream, never per candidate
		m, _ := json.Marshal(msg)
		dst = append(append(dst, `"error":`...), m...)
		if traceID != "" {
			dst = append(dst, ',')
		}
	}
	if traceID != "" {
		//eip:alloc-ok once per failed or drained stream, never per candidate
		t, _ := json.Marshal(traceID)
		dst = append(append(dst, `"trace_id":`...), t...)
	}
	return append(dst, '}', '\n')
}
