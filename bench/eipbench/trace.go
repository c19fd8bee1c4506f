package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
	"time"
)

// span is one recorded interval around a call into a layer.
type span struct {
	Name string `json:"name"`
	// Op is the operation the span belongs to; -1 marks a probe outside
	// the measured operations.
	Op int `json:"op"`
	// Parent indexes the enclosing span; -1 for roots.
	Parent int   `json:"parent"`
	Start  int64 `json:"start_ns"`
	End    int64 `json:"end_ns"`
}

// tracer keeps spans in memory until the run writes them out. Every method
// is a no-op on a nil tracer, so untraced runs pay one nil check per call
// site.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id.
func (t *tracer) begin(name string, op, parent int) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, Start: now, End: now})
	return len(t.spans) - 1
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// record adds a span whose interval was measured elsewhere (the pipeline
// stage timings core.Build reports through Options.OnStage).
func (t *tracer) record(name string, op, parent int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))})
	return len(t.spans) - 1
}

// selfTimes returns, per span name, the summed self time of the spans
// whose root span has the given name: a span's duration minus the part of
// it its children cover (children of one span never overlap here: each
// operation runs its layer calls on one goroutine).
func (t *tracer) selfTimes(root string) map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	rootOf := make([]int, len(t.spans))
	child := make([]int64, len(t.spans))
	for i, s := range t.spans {
		rootOf[i] = i
		if s.Parent >= 0 {
			rootOf[i] = rootOf[s.Parent]
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]time.Duration{}
	for i, s := range t.spans {
		if t.spans[rootOf[i]].Name == root {
			out[s.Name] += time.Duration(s.End - s.Start - child[i])
		}
	}
	return out
}

// write saves the spans as JSON.
func (t *tracer) write(path, workload string, seed int64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// layerReport is what a workload's traced run yields: the per-layer
// metrics and the time of one mean op attributed to layers.
type layerReport struct {
	metrics map[string]float64
	rows    []layerRow
	// overlap holds rows of work that runs while the rows' work runs (the
	// client decoding a response the server is still streaming): shown in
	// the table but not added to its sum.
	overlap []layerRow
	// coverPct is the rows' raw sum, before any fitting, as a share of the
	// measured time per op they must fit in.
	coverPct float64
}

// layerRow is one layer's share of an op.
type layerRow struct {
	Layer   string  `json:"layer"`
	MsPerOp float64 `json:"ms_per_op"`
	Pct     float64 `json:"pct"`
}

// coverLimitPct is how far the raw layer rows may add up past the time
// they were measured against before the table is flagged as not fitting.
const coverLimitPct = 105

func sumRows(rows []layerRow) float64 {
	sum := 0.0
	for _, r := range rows {
		sum += r.MsPerOp
	}
	return sum
}

// fitRows fits layer costs from separately timed probes to the server-side
// time per op measured in the traced window, adds the handler's own row,
// and returns the probes' raw sum as a share of the handler time. When the
// probes add up to less, the rest is the handler's own time (routing,
// middleware, response writing). When they add up to more — the probes ran
// at another moment on a shared host, or the server overlaps layers the
// probes ran one after another — they share the measured time in
// proportion, and a share above coverLimitPct flags the table.
func fitRows(rows []layerRow, handlerMs float64) ([]layerRow, float64) {
	sum := sumRows(rows)
	cover := 0.0
	if handlerMs > 0 {
		cover = 100 * sum / handlerMs
	}
	out := append([]layerRow(nil), rows...)
	if sum > handlerMs {
		for i := range out {
			out[i].MsPerOp *= handlerMs / sum
		}
		sum = handlerMs
	}
	return append(out, layerRow{Layer: handlerSpan, MsPerOp: handlerMs - sum}), cover
}

// layerTable is the self-time table of one workload: every attributed
// layer plus the unaccounted rest, adding up to the mean traced op.
type layerTable struct {
	Workload   string     `json:"workload"`
	Ops        int        `json:"ops"`
	E2EMsPerOp float64    `json:"e2e_ms_per_op"`
	Rows       []layerRow `json:"rows"`
	Overlap    []layerRow `json:"overlap,omitempty"`
	CoverPct   float64    `json:"cover_pct"`
}

// newLayerTable completes the attributed rows with the unaccounted row:
// the mean traced op latency minus the sum of the layers. The rows and
// unaccounted therefore add up to the end-to-end value by construction;
// CoverPct is what shows whether the measured layers fit.
func newLayerTable(workload string, st *opStats, rep *layerReport) *layerTable {
	t := &layerTable{Workload: workload, Ops: len(st.lat), E2EMsPerOp: st.meanMs(),
		Overlap: rep.overlap, CoverPct: rep.coverPct}
	t.Rows = append(append([]layerRow(nil), rep.rows...),
		layerRow{Layer: "unaccounted", MsPerOp: t.E2EMsPerOp - sumRows(rep.rows)})
	for _, rows := range [][]layerRow{t.Rows, t.Overlap} {
		for i := range rows {
			if t.E2EMsPerOp > 0 {
				rows[i].Pct = 100 * rows[i].MsPerOp / t.E2EMsPerOp
			}
		}
	}
	return t
}

func (t *layerTable) unaccountedPct() float64 { return t.Rows[len(t.Rows)-1].Pct }

func (t *layerTable) print(w io.Writer) {
	fmt.Fprintf(w, "  self time per op over %d traced ops:\n", t.Ops)
	for _, r := range t.Rows {
		fmt.Fprintf(w, "    %-26s %12.4f ms %7.1f%%\n", r.Layer, r.MsPerOp, r.Pct)
	}
	fmt.Fprintf(w, "    %-26s %12.4f ms (traced end-to-end %.4f ms)\n", "sum", sumRows(t.Rows), t.E2EMsPerOp)
	for _, r := range t.Overlap {
		fmt.Fprintf(w, "    %-26s %12.4f ms %7.1f%% (overlaps serve.handler, not in the sum)\n", r.Layer, r.MsPerOp, r.Pct)
	}
	flag := ""
	if t.CoverPct > coverLimitPct {
		flag = fmt.Sprintf("  FLAGGED: above %d%%, the layer rows do not fit the measured time", coverLimitPct)
	}
	fmt.Fprintf(w, "    layer rows before fitting cover %.1f%% of the measured time%s\n", t.CoverPct, flag)
}
