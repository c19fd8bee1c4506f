package trace

import (
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Policy defaults and the per-trace arena size. A retained trace keeps
// only the spans it used, copied out of its maxSpans arena, so a full
// ring holds at most Capacity x maxSpans x sizeof(Span)
// (512 x 64 x 496 B ≈ 16 MiB) and in practice far less: a traced request
// uses a handful of spans, a few KB. Spans past maxSpans are counted as
// dropped, not recorded.
const (
	defaultCapacity      = 512
	maxSpans             = 64
	defaultSlowThreshold = 250 * time.Millisecond
	defaultSampleEvery   = 64
)

// Policy is the flight recorder's tail-sampling configuration. The keep
// decision happens when a trace COMPLETES (Dapper-style tail sampling),
// so the policy can look at outcome and latency, not just a coin flip at
// the start:
//
//   - error:   any span marked SetError (covers panics, 5xx, failed
//     retrains) — always kept.
//   - forced:  ForceKeep (shadow-rejected rotations) or an inbound
//     traceparent with the sampled flag — always kept.
//   - slow:    root latency over SlowThreshold — always kept.
//   - sampled: every SampleEvery-th remaining trace — kept so the ring
//     always holds a baseline of normal traffic to compare against.
type Policy struct {
	// Capacity is the number of retained traces; the oldest is evicted
	// when a new keep finds the ring full.
	Capacity int
	// SlowThreshold marks a completed root span slow enough to keep.
	SlowThreshold time.Duration
	// SampleEvery keeps 1-in-N of traces not otherwise kept. <= 0
	// disables probabilistic keeps (errors/forced/slow still kept).
	SampleEvery int
}

func (p Policy) withDefaults() Policy {
	if p.Capacity <= 0 {
		p.Capacity = defaultCapacity
	}
	if p.SlowThreshold <= 0 {
		p.SlowThreshold = defaultSlowThreshold
	}
	if p.SampleEvery == 0 {
		p.SampleEvery = defaultSampleEvery
	}
	return p
}

// Recorder is the in-process flight recorder: completed traces land here
// and the tail-sampling policy decides keep vs discard. Kept traces are
// copied into right-sized traces retained in one ring under one mutex
// (evicting the oldest); arenas return to the tracer pool (see complete).
// A keep holds the lock for one slot store, and at the default policy
// only 1 in 64 ordinary traces is kept, so one lock suffices.
type Recorder struct {
	policy    Policy
	sampleCtr atomic.Uint64
	kept      atomic.Uint64
	discarded atomic.Uint64

	mu   sync.Mutex
	ring []*traceData // Capacity slots, filled from 0
	next int          // slot of the next keep: the oldest trace once full
}

// NewRecorder builds a recorder with p (zero fields take defaults).
func NewRecorder(p Policy) *Recorder {
	r := &Recorder{policy: p.withDefaults()}
	r.ring = make([]*traceData, r.policy.Capacity)
	return r
}

// complete applies the tail-sampling policy to a finished trace. Called
// from Span.Finish on the root span's goroutine.
//
// A kept trace is copied into a right-sized trace, so the ring holds the
// few spans a trace used instead of its whole arena. The arena then goes
// back to the pool, kept or not, unless a child span is still unfinished
// (an ownership-rule violation): such a straggler may write to its span
// after the root, so its arena is left to the garbage collector rather
// than handed to another trace.
func (r *Recorder) complete(td *traceData) {
	root := &td.spans[0]
	n := int(td.next.Load())
	if n > len(td.spans) {
		n = len(td.spans)
	}
	reason := ""
	finished := true
	for i := 0; i < n; i++ {
		if td.spans[i].status == statusError {
			reason = "error"
		}
		if td.spans[i].end.IsZero() {
			finished = false
		}
	}
	if reason == "" && td.forcedKeep.Load() {
		reason = "forced"
	}
	if reason == "" && root.end.Sub(root.start) >= r.policy.SlowThreshold {
		reason = "slow"
	}
	if reason == "" && r.policy.SampleEvery > 0 &&
		r.sampleCtr.Add(1)%uint64(r.policy.SampleEvery) == 0 {
		reason = "sampled"
	}
	if reason == "" {
		r.discarded.Add(1)
	} else {
		r.keep(td, n, reason)
	}
	if finished && td.tracer != nil {
		td.tracer.release(td)
	}
}

// keep retains a copy of the first n spans of a finished trace. A child
// span the owner goroutine failed to finish before the root is closed at
// the root's end time in the copy, so readers never observe a zero end
// time, and the straggler's later writes go to the arena, not the copy.
func (r *Recorder) keep(td *traceData, n int, reason string) {
	kept := &traceData{
		traceID:      td.traceID,
		remoteParent: td.remoteParent,
		keptBecause:  reason,
		spans:        make([]Span, n),
	}
	kept.next.Store(int32(n))
	kept.dropped.Store(td.dropped.Load())
	copy(kept.spans, td.spans[:n])
	for i := range kept.spans {
		kept.spans[i].td = kept
		if kept.spans[i].end.IsZero() {
			kept.spans[i].end = td.spans[0].end
		}
	}
	r.kept.Add(1)

	r.mu.Lock()
	r.ring[r.next] = kept
	r.next = (r.next + 1) % len(r.ring)
	r.mu.Unlock()
}

// Summary is the list-view of one retained trace.
type Summary struct {
	TraceID    string  `json:"trace_id"`
	Root       string  `json:"root"`
	Start      string  `json:"start"`
	DurationMS float64 `json:"duration_ms"`
	Spans      int     `json:"spans"`
	Dropped    int     `json:"dropped_spans,omitempty"`
	Error      bool    `json:"error,omitempty"`
	Kept       string  `json:"kept"`
}

// Node is one span in a fetched trace tree.
type Node struct {
	SpanID     string         `json:"span_id"`
	Name       string         `json:"name"`
	StartUS    int64          `json:"start_us"` // offset from trace start
	DurationUS int64          `json:"duration_us"`
	Error      string         `json:"error,omitempty"`
	Attrs      map[string]any `json:"attrs,omitempty"`
	Children   []*Node        `json:"children,omitempty"`
}

// Tree is one fully fetched trace.
type Tree struct {
	TraceID      string `json:"trace_id"`
	RemoteParent string `json:"remote_parent,omitempty"`
	Start        string `json:"start"`
	Kept         string `json:"kept"`
	Dropped      int    `json:"dropped_spans,omitempty"`
	Root         *Node  `json:"root"`
}

// RecorderStats reports keep/discard counters and current retention.
type RecorderStats struct {
	Kept      uint64 `json:"kept"`
	Discarded uint64 `json:"discarded"`
	Retained  int    `json:"retained"`
	Capacity  int    `json:"capacity"`
}

// Stats returns the recorder's counters. Retained walks the ring under
// its lock.
func (r *Recorder) Stats() RecorderStats {
	st := RecorderStats{
		Kept:      r.kept.Load(),
		Discarded: r.discarded.Load(),
		Capacity:  len(r.ring),
	}
	r.mu.Lock()
	for _, td := range r.ring {
		if td != nil {
			st.Retained++
		}
	}
	r.mu.Unlock()
	return st
}

// snapshotSummary builds a Summary under the ring lock (td is immutable
// once retained, but the ring slot itself must be read under the lock).
func snapshotSummary(td *traceData) Summary {
	root := &td.spans[0]
	n := int(td.next.Load())
	if n > len(td.spans) {
		n = len(td.spans)
	}
	s := Summary{
		TraceID:    td.traceID.String(),
		Root:       root.name,
		Start:      root.start.UTC().Format(time.RFC3339Nano),
		DurationMS: float64(root.end.Sub(root.start).Microseconds()) / 1000,
		Spans:      n,
		Dropped:    int(td.dropped.Load()),
		Kept:       td.keptBecause,
	}
	for i := 0; i < n; i++ {
		if td.spans[i].status == statusError {
			s.Error = true
			break
		}
	}
	return s
}

// List returns summaries of retained traces, newest first, up to max
// (<= 0 means all).
func (r *Recorder) List(max int) []Summary {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []Summary
	// Walk back from the newest slot; the first empty slot ends a ring
	// that has not yet filled.
	for i := 1; i <= len(r.ring) && (max <= 0 || len(out) < max); i++ {
		td := r.ring[(r.next-i+len(r.ring))%len(r.ring)]
		if td == nil {
			break
		}
		out = append(out, snapshotSummary(td))
	}
	return out
}

// Get fetches one retained trace as a span tree, or false. A client that
// propagates one traceparent across several requests (eipscan's pull +
// feedback round) produces one retained arena per request, all under the
// same trace ID; Get merges those onto one timeline beneath a synthetic
// "trace" root so the round reads as a single connected trace.
func (r *Recorder) Get(id TraceID) (Tree, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	var matches []*traceData
	for _, td := range r.ring {
		if td != nil && td.traceID == id {
			matches = append(matches, td)
		}
	}
	switch len(matches) {
	case 0:
		return Tree{}, false
	case 1:
		return buildTree(matches[0]), true
	}
	sort.Slice(matches, func(i, j int) bool {
		return matches[i].spans[0].start.Before(matches[j].spans[0].start)
	})
	earliest := matches[0].spans[0].start
	root := &Node{Name: "trace"}
	merged := Tree{
		TraceID: id.String(),
		Start:   earliest.UTC().Format(time.RFC3339Nano),
		Root:    root,
	}
	var end time.Time
	for _, td := range matches {
		sub := buildTree(td)
		shiftNode(sub.Root, td.spans[0].start.Sub(earliest).Microseconds())
		root.Children = append(root.Children, sub.Root)
		merged.Dropped += sub.Dropped
		if sub.RemoteParent != "" {
			merged.RemoteParent = sub.RemoteParent
		}
		if !strings.Contains(merged.Kept, sub.Kept) {
			if merged.Kept != "" {
				merged.Kept += "+"
			}
			merged.Kept += sub.Kept
		}
		if e := td.spans[0].end; e.After(end) {
			end = e
		}
	}
	root.DurationUS = end.Sub(earliest).Microseconds()
	return merged, true
}

// shiftNode moves a subtree's start offsets forward by us microseconds,
// re-basing per-request offsets onto the merged trace's timeline.
func shiftNode(n *Node, us int64) {
	n.StartUS += us
	for _, c := range n.Children {
		shiftNode(c, us)
	}
}

// buildTree assembles the parent/child structure. Runs under the ring
// lock; the retained arena is immutable so this only reads.
func buildTree(td *traceData) Tree {
	root := &td.spans[0]
	n := int(td.next.Load())
	if n > len(td.spans) {
		n = len(td.spans)
	}
	nodes := make([]*Node, n)
	byID := make(map[SpanID]*Node, n)
	for i := 0; i < n; i++ {
		sp := &td.spans[i]
		node := &Node{
			SpanID:     sp.id.String(),
			Name:       sp.name,
			StartUS:    sp.start.Sub(root.start).Microseconds(),
			DurationUS: sp.end.Sub(sp.start).Microseconds(),
			Error:      sp.errMsg,
		}
		if sp.status == statusError && node.Error == "" {
			node.Error = "error"
		}
		if sp.nattrs > 0 {
			node.Attrs = make(map[string]any, sp.nattrs)
			for a := int32(0); a < sp.nattrs; a++ {
				node.Attrs[sp.attrs[a].Key()] = sp.attrs[a].Value()
			}
		}
		nodes[i] = node
		byID[sp.id] = node
	}
	for i := 1; i < n; i++ {
		parent := byID[td.spans[i].parent]
		if parent == nil || parent == nodes[i] {
			parent = nodes[0] // orphan (shouldn't happen): hang off root
		}
		parent.Children = append(parent.Children, nodes[i])
	}
	t := Tree{
		TraceID: td.traceID.String(),
		Start:   root.start.UTC().Format(time.RFC3339Nano),
		Kept:    td.keptBecause,
		Dropped: int(td.dropped.Load()),
		Root:    nodes[0],
	}
	if td.remoteParent.IsValid() {
		t.RemoteParent = td.remoteParent.String()
	}
	return t
}
