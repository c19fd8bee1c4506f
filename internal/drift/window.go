package drift

import (
	"sync"

	"entropyip/internal/core"
	"entropyip/internal/ingest"
)

// Window scores one live ingest buffer against its model incrementally:
// the report Score(m, buf.Snapshot()) would return, bit for bit, at a cost
// that grows with the slots written since the last evaluation rather than
// with the window. It drains the buffer's change record
// (ingest.Buffer.Drain) into per-slot encoding state (core.WindowState)
// and per-nybble counts, both moved by delta, and builds the report with
// the code Score uses.
//
// The state belongs to one model: an evaluation under a different
// *core.Model (a rotation, an upload, a registry reload) rebuilds it from
// the whole window (ingest.Buffer.DrainAll). Prefix64Only models are
// scored by Score on a snapshot instead, because their window is masked
// to /64s and deduplicated, and which address represents a /64 changes
// with every eviction.
//
// A Window serves one buffer, which it must be the only one to drain. The
// zero value is ready to use, and Score is safe for concurrent use.
type Window struct {
	mu    sync.Mutex
	model *core.Model
	state *core.WindowState
	nyb   nybbleCounts
	// changes is Drain's reused result.
	changes []ingest.Change
}

// Score returns the drift report of the buffer's current window against m.
func (w *Window) Score(m *core.Model, buf *ingest.Buffer) (Report, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if m.Opts.Prefix64Only {
		w.model, w.state = nil, nil
		return Score(m, buf.Snapshot())
	}
	withNybble := hasNybble(m)
	if m != w.model {
		w.model, w.nyb = m, nybbleCounts{}
		w.state = m.NewWindowState(buf.Stats().WindowCapacity)
		for slot, a := range buf.DrainAll() {
			if withNybble {
				w.nyb.add(a, 1)
			}
			w.state.Set(slot, a)
		}
	} else {
		w.changes = buf.Drain(w.changes[:0])
		for _, c := range w.changes {
			if withNybble {
				if c.HadPrev {
					w.nyb.add(c.Prev, -1)
				}
				w.nyb.add(c.Cur, 1)
			}
			w.state.Set(c.Slot, c.Cur)
		}
	}
	return report(m, w.state.Len(), w.state.Encoding(), &w.nyb)
}
