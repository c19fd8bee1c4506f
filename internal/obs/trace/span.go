package trace

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// MaxSpanAttrs is the number of fixed attribute slots per span. Setting
// an attribute past the limit silently drops it (the hot path must not
// allocate or error).
const MaxSpanAttrs = 8

type attrKind uint8

const (
	attrNone attrKind = iota
	attrString
	attrInt
	attrFloat
	attrBool
)

// Attr is one fixed attribute slot. Numeric values share the num field
// (int64 / float64 bits / bool) so a slot stays flat — no interface
// boxing on the hot path.
type Attr struct {
	key  string
	kind attrKind
	str  string
	num  uint64
}

// Key returns the attribute key, or "" for an empty slot.
func (a Attr) Key() string { return a.key }

// Value returns the attribute value as an any (for JSON serialization;
// this boxes, but only runs when a kept trace is read back).
func (a Attr) Value() any {
	switch a.kind {
	case attrString:
		return a.str
	case attrInt:
		return int64(a.num)
	case attrFloat:
		return math.Float64frombits(a.num)
	case attrBool:
		return a.num != 0
	}
	return nil
}

const (
	statusUnset int32 = iota
	statusError
)

// Span is one timed operation inside a trace. Spans live in their trace's
// arena (traceData.spans); pointers stay valid until the trace is either
// copied out by the recorder or released back to the pool, both of which
// happen only after the root finishes. All methods are nil-safe so
// instrumented code never branches on "is tracing on".
//
// Ownership rule: a span is written by exactly one goroutine. Start a
// child BEFORE handing work to another goroutine and let that goroutine
// own the child; finish children before finishing the root.
type Span struct {
	td     *traceData
	name   string
	id     SpanID
	parent SpanID
	start  time.Time
	end    time.Time
	status int32
	nattrs int32
	errMsg string
	attrs  [MaxSpanAttrs]Attr
}

// traceData is the per-trace arena: a fixed slab of spans claimed by
// atomic index, pooled by the Tracer. On keep the recorder retains a
// right-sized traceData holding a copy of the used spans (tracer nil);
// the arena itself returns to the pool unless a child span outlived the
// root (Recorder.complete). spans[0] is the root.
type traceData struct {
	tracer       *Tracer
	traceID      TraceID
	remoteParent SpanID // inbound traceparent's span ID, zero if locally minted
	forcedKeep   atomic.Bool
	next         atomic.Int32 // arena high-water mark
	dropped      atomic.Int32 // spans that did not fit the arena
	keptBecause  string       // set by the recorder at completion
	spans        []Span
}

// claim reserves the next span slot. Returns nil when the arena is full;
// the caller's span becomes a no-op (still nil-safe).
func (td *traceData) claim(name string, parent SpanID, start time.Time) *Span {
	i := td.next.Add(1) - 1
	if int(i) >= len(td.spans) {
		td.dropped.Add(1)
		return nil
	}
	s := &td.spans[i]
	s.td = td
	s.name = name
	putSpanID(&s.id, nextID())
	s.parent = parent
	s.start = start
	s.end = time.Time{}
	s.status = statusUnset
	s.nattrs = 0
	s.errMsg = ""
	return s
}

// putSpanID writes v big-endian into dst, nudging the all-zero value to
// valid (nextID never returns 0, so this is belt-and-braces).
func putSpanID(dst *SpanID, v uint64) {
	dst[0] = byte(v >> 56)
	dst[1] = byte(v >> 48)
	dst[2] = byte(v >> 40)
	dst[3] = byte(v >> 32)
	dst[4] = byte(v >> 24)
	dst[5] = byte(v >> 16)
	dst[6] = byte(v >> 8)
	dst[7] = byte(v)
	if !dst.IsValid() {
		dst[7] = 1
	}
}

// Tracer mints traces and recycles their arenas. A nil *Tracer is a valid
// no-op tracer: StartRoot returns nil and every span method on a nil span
// is a no-op, so instrumentation costs nothing when tracing is off.
type Tracer struct {
	rec  *Recorder
	pool sync.Pool
}

// NewTracer returns a tracer feeding completed traces into rec. Each
// trace's arena holds maxSpans spans.
func NewTracer(rec *Recorder) *Tracer {
	t := &Tracer{rec: rec}
	t.pool.New = func() any {
		return &traceData{spans: make([]Span, maxSpans)}
	}
	return t
}

// StartRoot opens the root span of a new trace. When parent is a valid
// inbound SpanContext the trace joins it (same trace ID, root parented to
// the remote span, upstream Sampled honored as a forced keep); otherwise
// a fresh trace ID is minted. Returns nil on a nil tracer.
func (t *Tracer) StartRoot(name string, parent SpanContext) *Span {
	if t == nil {
		return nil
	}
	//eip:pool-ok arena ownership moves to the returned Span; release() puts it back on Finish or drop
	td := t.pool.Get().(*traceData)
	td.tracer = t
	td.next.Store(0)
	td.dropped.Store(0)
	td.keptBecause = ""
	if parent.IsValid() {
		td.traceID = parent.TraceID
		td.remoteParent = parent.SpanID
		td.forcedKeep.Store(parent.Sampled)
	} else {
		td.traceID = NewTraceID()
		td.remoteParent = SpanID{}
		td.forcedKeep.Store(false)
	}
	return td.claim(name, td.remoteParent, time.Now())
}

// release returns a discarded trace arena to the pool.
func (t *Tracer) release(td *traceData) { t.pool.Put(td) }

// Context returns the span's propagation context. Safe on nil (returns
// the invalid zero SpanContext, which propagates as "no traceparent").
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return SpanContext{TraceID: s.td.traceID, SpanID: s.id, Sampled: true}
}

// TraceID returns the span's trace ID (zero on nil).
func (s *Span) TraceID() TraceID {
	if s == nil {
		return TraceID{}
	}
	return s.td.traceID
}

// StartChild opens a child span. Nil-safe; returns nil when the arena is
// full (the child then becomes a no-op).
func (s *Span) StartChild(name string) *Span {
	if s == nil {
		return nil
	}
	return s.td.claim(name, s.id, time.Now())
}

// RecordChild records an already-measured operation as a child span that
// ended now and started d ago — for retroactive stage timings
// (core.Options.OnStage fires after each stage with its duration).
func (s *Span) RecordChild(name string, d time.Duration) {
	if s == nil {
		return
	}
	now := time.Now()
	c := s.td.claim(name, s.id, now.Add(-d))
	if c != nil {
		c.end = now
	}
}

func (s *Span) setAttr(key string, kind attrKind, str string, num uint64) {
	if s == nil {
		return
	}
	n := s.nattrs
	if int(n) >= MaxSpanAttrs {
		return
	}
	s.attrs[n] = Attr{key: key, kind: kind, str: str, num: num}
	s.nattrs = n + 1
}

// SetAttr sets a string attribute (silently dropped past MaxSpanAttrs).
func (s *Span) SetAttr(key, value string) { s.setAttr(key, attrString, value, 0) }

// SetInt sets an integer attribute.
func (s *Span) SetInt(key string, value int64) { s.setAttr(key, attrInt, "", uint64(value)) }

// SetFloat sets a float attribute.
func (s *Span) SetFloat(key string, value float64) {
	s.setAttr(key, attrFloat, "", math.Float64bits(value))
}

// SetBool sets a boolean attribute.
func (s *Span) SetBool(key string, value bool) {
	var n uint64
	if value {
		n = 1
	}
	s.setAttr(key, attrBool, "", n)
}

// SetError marks the span failed with msg (first error wins) and forces
// the trace to be kept by the recorder.
func (s *Span) SetError(msg string) {
	if s == nil {
		return
	}
	if s.status == statusUnset {
		s.status = statusError
		s.errMsg = msg
	}
	s.td.forcedKeep.Store(true)
}

// Failed reports whether SetError was called on this span.
func (s *Span) Failed() bool { return s != nil && s.status == statusError }

// ForceKeep marks the whole trace for retention regardless of sampling —
// for rare events worth keeping even when fast and error-free (e.g.
// shadow-rejected rotations).
func (s *Span) ForceKeep() {
	if s == nil {
		return
	}
	s.td.forcedKeep.Store(true)
}

// Finish ends the span. Finishing the root span (the one StartRoot
// returned) completes the trace and hands it to the recorder for the
// keep/discard decision; on discard the arena is recycled. Nil-safe.
func (s *Span) Finish() {
	if s == nil {
		return
	}
	s.end = time.Now()
	td := s.td
	if s != &td.spans[0] {
		return
	}
	// Root finished: complete the trace.
	switch {
	case td.tracer == nil:
	case td.tracer.rec == nil:
		td.tracer.release(td)
	default:
		td.tracer.rec.complete(td)
	}
}
