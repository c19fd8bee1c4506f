// Package trace is a dependency-free, in-process tracing layer for the
// serving plane, built on real spans:
//
//   - W3C Trace Context (traceparent) parse/format for propagation across
//     the wire, so eipgen/eipscan rounds connect to server-side traces.
//   - Zero-allocation span creation on the request hot path: spans live in
//     a pooled per-trace arena with fixed attribute slots, claimed by
//     atomic index (see span.go).
//   - An always-on flight recorder: one ring buffer retaining completed
//     traces under a tail-sampling policy (see recorder.go).
//
// The package deliberately implements only what the serving plane needs;
// it is not an OpenTelemetry SDK. IDs are correlation identifiers, not
// security tokens — same stance as obs.NextRequestID.
package trace

import (
	crand "crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"sync/atomic"
)

// TraceID is a 16-byte W3C trace identifier. The all-zero value is invalid.
type TraceID [16]byte

// SpanID is an 8-byte W3C span identifier. The all-zero value is invalid.
type SpanID [8]byte

// IsValid reports whether the trace ID is non-zero.
func (t TraceID) IsValid() bool { return t != TraceID{} }

// IsValid reports whether the span ID is non-zero.
func (s SpanID) IsValid() bool { return s != SpanID{} }

// AppendHex appends the lowercase hex encoding of the trace ID to dst.
func (t TraceID) AppendHex(dst []byte) []byte { return hex.AppendEncode(dst, t[:]) }

// AppendHex appends the lowercase hex encoding of the span ID to dst.
func (s SpanID) AppendHex(dst []byte) []byte { return hex.AppendEncode(dst, s[:]) }

// String returns the 32-char lowercase hex form.
func (t TraceID) String() string {
	var buf [32]byte
	return string(t.AppendHex(buf[:0]))
}

// String returns the 16-char lowercase hex form.
func (s SpanID) String() string {
	var buf [16]byte
	return string(s.AppendHex(buf[:0]))
}

var errBadHex = errors.New("trace: invalid hex")

// decodeHex fills dst from the 2*len(dst) hex digits of src (either case).
func decodeHex(dst []byte, src string) error {
	if _, err := hex.Decode(dst, []byte(src)); err != nil {
		return errBadHex
	}
	return nil
}

// ParseTraceID parses a 32-char hex trace ID. The all-zero ID is rejected.
func ParseTraceID(s string) (TraceID, error) {
	var t TraceID
	if len(s) != 32 {
		return t, errors.New("trace: trace-id must be 32 hex chars")
	}
	if err := decodeHex(t[:], s); err != nil {
		return TraceID{}, err
	}
	if !t.IsValid() {
		return TraceID{}, errors.New("trace: all-zero trace-id")
	}
	return t, nil
}

// SpanContext is the propagated identity of a span: enough to parent a
// remote child and to honor an upstream sampling decision.
type SpanContext struct {
	TraceID TraceID
	SpanID  SpanID
	Sampled bool // traceparent flags bit 0: upstream asked to keep this trace
}

// IsValid reports whether both IDs are non-zero.
func (sc SpanContext) IsValid() bool { return sc.TraceID.IsValid() && sc.SpanID.IsValid() }

// traceparent is `version "-" trace-id "-" parent-id "-" flags`, where for
// version 00 each field is fixed-width lowercase hex:
//
//	00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01
const traceparentLen = 2 + 1 + 32 + 1 + 16 + 1 + 2

// ErrBadTraceparent is returned by ParseTraceparent for any malformed or
// invalid header value.
var ErrBadTraceparent = errors.New("trace: invalid traceparent")

// ParseTraceparent parses a W3C traceparent header value. Per the spec:
// version 0xff is invalid; for version 00 the value must be exactly 55
// chars; all-zero trace or span IDs are invalid; future versions are
// accepted if their first four fields parse (trailing data ignored).
func ParseTraceparent(h string) (SpanContext, error) {
	var sc SpanContext
	if len(h) < traceparentLen {
		return sc, ErrBadTraceparent
	}
	var version, flags [1]byte
	if decodeHex(version[:], h[:2]) != nil {
		return sc, ErrBadTraceparent
	}
	if version[0] == 0xff {
		return sc, ErrBadTraceparent
	}
	if version[0] == 0 && len(h) != traceparentLen {
		return sc, ErrBadTraceparent
	}
	if len(h) > traceparentLen && h[traceparentLen] != '-' {
		return sc, ErrBadTraceparent
	}
	if h[2] != '-' || h[35] != '-' || h[52] != '-' {
		return sc, ErrBadTraceparent
	}
	if decodeHex(sc.TraceID[:], h[3:35]) != nil ||
		decodeHex(sc.SpanID[:], h[36:52]) != nil ||
		decodeHex(flags[:], h[53:55]) != nil ||
		!sc.IsValid() {
		return SpanContext{}, ErrBadTraceparent
	}
	sc.Sampled = flags[0]&0x01 != 0
	return sc, nil
}

// AppendTraceparent appends the version-00 traceparent form of sc to dst.
func AppendTraceparent(dst []byte, sc SpanContext) []byte {
	dst = append(dst, '0', '0', '-')
	dst = sc.TraceID.AppendHex(dst)
	dst = append(dst, '-')
	dst = sc.SpanID.AppendHex(dst)
	if sc.Sampled {
		return append(dst, '-', '0', '1')
	}
	return append(dst, '-', '0', '0')
}

// Traceparent returns the version-00 traceparent header value for sc.
func Traceparent(sc SpanContext) string {
	var buf [traceparentLen]byte
	return string(AppendTraceparent(buf[:0], sc))
}

// ID generation: a splitmix64 stream over an atomic counter, gamma-stepped,
// seeded once from crypto/rand. Fast (one atomic add + a few multiplies,
// no locks, no allocation) and collision-resistant enough for correlation
// IDs. Deliberately not cryptographically unpredictable.
var idState atomic.Uint64

func init() {
	var seed [8]byte
	if _, err := crand.Read(seed[:]); err == nil {
		idState.Store(binary.LittleEndian.Uint64(seed[:]))
	} else {
		idState.Store(0x9e3779b97f4a7c15) // deterministic fallback; still unique per step
	}
}

// nextID returns the next non-zero 64-bit ID from the splitmix64 stream.
func nextID() uint64 {
	for {
		x := idState.Add(0x9e3779b97f4a7c15) // golden-ratio gamma
		x ^= x >> 30
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 27
		x *= 0x94d049bb133111eb
		x ^= x >> 31
		if x != 0 {
			return x
		}
	}
}

// NewTraceID mints a random-looking non-zero trace ID.
func NewTraceID() TraceID {
	var t TraceID
	binary.BigEndian.PutUint64(t[:8], nextID())
	binary.BigEndian.PutUint64(t[8:], nextID())
	return t
}

// NewSpanID mints a random-looking non-zero span ID.
func NewSpanID() SpanID {
	var s SpanID
	binary.BigEndian.PutUint64(s[:], nextID())
	return s
}

// NewSpanContext mints a fresh sampled root context — what a client uses
// to start a new distributed trace before the first outbound request.
func NewSpanContext() SpanContext {
	return SpanContext{TraceID: NewTraceID(), SpanID: NewSpanID(), Sampled: true}
}
