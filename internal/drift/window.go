package drift

import (
	"sync"

	"entropyip/internal/core"
	"entropyip/internal/ingest"
	"entropyip/internal/ip6"
)

// Window scores one live ingest buffer against its model incrementally:
// the report Score(m, buf.Snapshot()) would return, bit for bit. An
// evaluation drains the buffer's change record (ingest.Buffer.Drain) and,
// for each slot written since the last one, adds the slot's current
// address to the encoding state (core.WindowState) and the per-nybble
// counts and removes the address it held before. The likelihood sums are
// exact and order-independent, so they move by delta too, and the cost of
// an evaluation grows with the slots written, not with the window; the
// report is then built with the code Score uses.
//
// The state belongs to one model: an evaluation under a different
// *core.Model (a rotation, an upload, a registry reload) rebuilds it from
// the whole window (ingest.Buffer.DrainAll). For a Prefix64Only model,
// Score masks the window to /64s and counts each /64 once, so the Window
// keeps a reference count per /64: an address enters the state and the
// nybble counts masked, and only when its /64's count rises from zero,
// and leaves them only when the count falls back to zero.
//
// A Window serves one buffer, which it must be the only one to drain. The
// zero value is ready to use, and Score is safe for concurrent use.
type Window struct {
	mu    sync.Mutex
	model *core.Model
	state *core.WindowState
	nyb   nybbleCounts
	// per64 counts the window's addresses in each /64 for a Prefix64Only
	// model; it is nil for any other.
	per64 map[ip6.Addr]int
	// changes is Drain's reused result.
	changes []ingest.Change
}

// Score returns the drift report of the buffer's current window against m.
func (w *Window) Score(m *core.Model, buf *ingest.Buffer) (Report, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if m != w.model {
		w.model, w.nyb, w.per64 = m, nybbleCounts{}, nil
		w.state = m.NewWindowState()
		if m.Opts.Prefix64Only {
			w.per64 = make(map[ip6.Addr]int)
		}
		for _, a := range buf.DrainAll() {
			w.count(a, 1)
		}
	} else {
		w.changes = buf.Drain(w.changes[:0])
		for _, c := range w.changes {
			w.count(c.Cur, 1)
			if c.HadPrev {
				w.count(c.Prev, -1)
			}
		}
	}
	return report(m, w.state.Len(), w.state.Encoding(), &w.nyb)
}

// count adds address a to the window (d = 1) or removes it (d = -1).
func (w *Window) count(a ip6.Addr, d int) {
	if w.per64 != nil {
		a = ip6.Mask(a, 64)
		n := w.per64[a] + d
		if n == 0 {
			delete(w.per64, a)
		} else {
			w.per64[a] = n
		}
		if n != d && n != 0 { // the /64 was counted before and still is
			return
		}
	}
	w.nyb.add(a, d)
	if d > 0 {
		w.state.Add(a)
	} else {
		w.state.Remove(a)
	}
}
