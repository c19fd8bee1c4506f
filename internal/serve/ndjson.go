package serve

import (
	"sync"
	"unicode/utf8"
)

// The NDJSON stream of POST /v1/models/{name}/generate used to go through
// encoding/json once per line — an Encoder allocation-and-reflection round
// trip per candidate, dominating the serving cost of the compiled sampler.
// The stream's line shapes are fixed ({"addr":"..."}, {"prefix":"..."},
// {"error":"..."}), so ndjsonSink (generate.go) builds each line in a
// pooled, reusable byte buffer with append-style formatting. The only
// subtle part is string escaping, which appendJSONString keeps
// byte-identical to encoding/json (HTML escaping included) so clients see
// exactly the bytes the old encoder produced.

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

// jsonSafe marks the bytes encoding/json emits verbatim inside a string
// with its default HTML escaping on: printable ASCII minus '"', '\\' and
// the HTML-sensitive '<', '>', '&'.
var jsonSafe = func() (safe [utf8.RuneSelf]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		switch c {
		case '"', '\\', '<', '>', '&':
		default:
			safe[c] = true
		}
	}
	return
}()

const hexLower = "0123456789abcdef"

// appendJSONString appends s as a JSON string literal (quotes included),
// escaping byte-identically to encoding/json with its default HTML
// escaping: \" \\ \n \r \t, \u00XX for other control and HTML-sensitive
// characters, \u2028/\u2029 for the JS line separators, and the U+FFFD
// replacement for invalid UTF-8. TestAppendJSONStringMatchesEncodingJSON
// pins the equivalence.
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if jsonSafe[b] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexLower[b>>4], hexLower[b&0xf])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			// encoding/json's HTML-escaping encoder writes the escape
			// sequence, not the literal replacement character.
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', 'f', 'f', 'f', 'd')
			i += size
			start = i
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexLower[c&0xf])
			i += size
			start = i
		default:
			i += size
		}
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
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
		dst = append(dst, `"error":`...)
		dst = appendJSONString(dst, msg)
		if traceID != "" {
			dst = append(dst, ',')
		}
	}
	if traceID != "" {
		dst = append(dst, `"trace_id":`...)
		dst = appendJSONString(dst, traceID)
	}
	return append(dst, '}', '\n')
}
