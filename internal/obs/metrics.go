// Package obs is the observability plane of the Entropy/IP serving
// system: a dependency-free metrics library — atomic counters, gauges and
// fixed-bucket latency histograms with a lock-free, zero-allocation hot
// path, plus a Registry that renders the Prometheus text exposition
// format (v0.0.4) into a caller-provided buffer — together with a
// log/slog-based structured-logger factory, process-unique request IDs,
// and a lightweight stage tracer for the training pipeline.
//
// Hot-path contract: Counter.Inc/Add, Gauge.Inc/Dec,
// Histogram.Observe and Histogram.ObserveExemplar never allocate and
// never take a lock (BenchmarkMetricsHotPath is CI-gated at 0 allocs/op,
// the same gate the serving-plane I/O paths live under). Registration and
// rendering are scrape-rate paths, not request-rate paths; they may lock
// and allocate.
package obs

import (
	"math"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. The zero value is ready
// to use, but counters that should be exported are normally created
// through Registry.Counter so they carry a name and labels.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one to the counter.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n to the counter.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a metric that can go up and down (in-flight requests, queue
// depth). The zero value is ready to use; a scrape reads it through a
// Registry.GaugeFunc.
type Gauge struct {
	v atomic.Int64
}

// Inc adds one to the gauge.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one from the gauge.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// DefBuckets are the default latency buckets (seconds), covering the
// sub-millisecond cache-hit path through multi-second training queues —
// the same spread Prometheus client libraries default to.
var DefBuckets = []float64{.005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10}

// Histogram is a fixed-bucket histogram of float64 observations
// (typically latencies in seconds). Buckets are cumulative in the
// exposition output, with upper bounds inclusive (`le`), exactly like
// Prometheus client histograms. Observe is lock-free and allocation-free.
type Histogram struct {
	// bounds are the inclusive upper bounds, sorted ascending. counts has
	// one slot per bound plus a final +Inf slot.
	bounds []float64
	counts []atomic.Uint64
	// sum holds the math.Float64bits of the running sum, advanced by CAS.
	sum atomic.Uint64
	// exemplars holds one best-effort exemplar slot per bucket, filled by
	// ObserveExemplar and rendered only in the OpenMetrics exposition.
	exemplars []exemplar
}

// exemplarIDLen bounds a stored exemplar ID; 32 fits a hex W3C trace ID
// exactly.
const exemplarIDLen = 32

// exemplar is one lock-free bucket exemplar slot. state is a 3-state
// latch: 0 empty, 1 busy (one goroutine holds exclusive access to the
// plain fields), 2 valid. Writers and readers both acquire via CAS to 1
// and release via Store, so field access is exclusive and the CAS/Store
// pair provides the happens-before edge; contenders skip instead of
// spinning (exemplars are best-effort samples, not ledger data).
type exemplar struct {
	state atomic.Int32
	value float64
	idLen int
	id    [exemplarIDLen]byte
}

// tryStore records (id, v) in the slot unless another goroutine holds it.
func (e *exemplar) tryStore(id string, v float64) {
	st := e.state.Load()
	if st == 1 || !e.state.CompareAndSwap(st, 1) {
		return
	}
	e.idLen = copy(e.id[:], id)
	e.value = v
	e.state.Store(2)
}

// tryLoad copies the slot's exemplar out, or reports false when the slot
// is empty or busy.
func (e *exemplar) tryLoad(id *[exemplarIDLen]byte, v *float64) bool {
	if e.state.Load() != 2 || !e.state.CompareAndSwap(2, 1) {
		return false
	}
	n := copy(id[:], e.id[:e.idLen])
	*v = e.value
	e.state.Store(2)
	return n > 0
}

// newHistogram builds a histogram over the given bucket upper bounds
// (nil selects DefBuckets). Bounds must be strictly increasing.
func newHistogram(bounds []float64) *Histogram {
	if bounds == nil {
		bounds = DefBuckets
	}
	own := make([]float64, len(bounds))
	copy(own, bounds)
	for i := 1; i < len(own); i++ {
		if own[i] <= own[i-1] {
			panic("obs: histogram buckets must be strictly increasing")
		}
	}
	return &Histogram{
		bounds:    own,
		counts:    make([]atomic.Uint64, len(own)+1),
		exemplars: make([]exemplar, len(own)+1),
	}
}

// Observe records one value. Buckets are few (≈10), so a linear scan
// beats binary search on branch prediction and stays allocation-free.
func (h *Histogram) Observe(v float64) {
	h.observe(v, "")
}

// ObserveExemplar records one value and attaches exemplarID (typically a
// hex trace ID) to the bucket the value lands in, best-effort: the slot
// holds the latest uncontended store and is only rendered in the
// OpenMetrics exposition (`# {trace_id="..."} value`). IDs over 32 bytes
// or empty are recorded without an exemplar. Lock-free, 0 allocs/op.
func (h *Histogram) ObserveExemplar(v float64, exemplarID string) {
	h.observe(v, exemplarID)
}

func (h *Histogram) observe(v float64, exemplarID string) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	for {
		old := h.sum.Load()
		nv := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, nv) {
			break
		}
	}
	if exemplarID != "" && len(exemplarID) <= exemplarIDLen {
		h.exemplars[i].tryStore(exemplarID, v)
	}
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }
