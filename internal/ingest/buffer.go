// Package ingest implements the streaming observation side of a
// long-running Entropy/IP deployment: a bounded, concurrent buffer of
// recently observed addresses that drift detection scores against the
// active model and retraining consumes as its training window.
//
// The paper models a snapshot of an operator's addressing plan; live
// address populations shift as operators roll out new variants. The
// Buffer is the bridge between the two worlds: writers (the /observe
// endpoint, the -ingest-file tail) push addresses at traffic rate, and
// readers take snapshots for scoring and retraining.
//
// Memory is bounded two ways: a sliding window of the last W accepted
// addresses (old observations are overwritten in ring order) and an
// optional per-/64 cap so that one chatty prefix cannot monopolize the
// window. The window is one ring under one mutex, so its contents depend
// only on the sequence of adds, never on the machine's core count.
//
// A consumer that keeps state per window slot (drift.Window) reads only
// what changed: once it has drained the buffer, the buffer records each
// slot written since the last drain, and Drain reports those slots with
// the address each one held before.
package ingest

import (
	"sync"

	"entropyip/internal/ip6"
)

// DefaultWindowSize is the window size used when Config.WindowSize is
// zero.
const DefaultWindowSize = 16384

// Config configures a Buffer.
type Config struct {
	// WindowSize is the number of addresses kept in the sliding window.
	// Zero means DefaultWindowSize.
	WindowSize int
	// MaxPer64 caps how many window slots addresses from one /64 prefix
	// may hold at a time; an observation beyond the cap replaces the
	// prefix's OLDEST window entry (counted in Stats.Deduped), so the
	// capped prefix's slots stay fresh instead of freezing on its first
	// MaxPer64 addresses. Zero disables the cap. The cap is what keeps a
	// single heavy-hitter /64 (one busy server, one NAT) from displacing
	// the rest of the live distribution.
	MaxPer64 int
}

func (c Config) windowSize() int {
	if c.WindowSize <= 0 {
		return DefaultWindowSize
	}
	return c.WindowSize
}

// Stats is a snapshot of buffer counters.
type Stats struct {
	// Observed counts every address offered to AddBatch.
	Observed uint64 `json:"observed"`
	// Accepted counts addresses that entered the window; every offered
	// address does (see Buffer.AddBatch), so it equals Observed.
	Accepted uint64 `json:"accepted"`
	// Deduped counts same-/64 window entries displaced early by the
	// per-/64 cap (a newer observation of the prefix replaced its
	// oldest).
	Deduped uint64 `json:"deduped"`
	// Evicted counts window slots overwritten by newer observations.
	Evicted uint64 `json:"evicted"`
	// Window is the number of addresses currently in the window.
	Window int `json:"window"`
	// WindowCapacity is the window's configured size.
	WindowCapacity int `json:"window_capacity"`
	// Prefixes64 is the number of distinct /64 prefixes in the window.
	Prefixes64 int `json:"prefixes_64"`
}

// Buffer is a bounded concurrent observation buffer: one ring of the
// last WindowSize accepted addresses under one mutex. All methods are
// safe for concurrent use.
type Buffer struct {
	maxPer64 int

	mu   sync.Mutex
	ring []ip6.Addr // fixed capacity, len == filled slots
	next int        // ring write position once full
	// per64 counts the window's addresses per /64, keyed by the address's
	// upper 64 bits (the /64's network half).
	per64 map[uint64]int32
	// slots tracks each /64's ring indices oldest-first, maintained only
	// when the per-/64 cap is on: a capped add replaces the prefix's
	// oldest slot in place so the window never freezes on stale entries.
	slots map[uint64][]int32
	// Counters, guarded by mu like the ring they describe.
	observed, deduped, evicted uint64

	// The change record, kept once a consumer has drained the buffer.
	// dirty has one bit per ring slot, set when the slot is first written
	// after a drain; changes lists those slots with the address each held
	// at the drain (zero for a slot still empty then), so it never holds
	// more entries than the window has slots.
	journaling bool
	dirty      []uint64
	changes    []slotChange
	// drained is len(ring) at the last drain: the slots below it held an
	// address then.
	drained int
}

// slotChange is one changed slot in the record: its index and the
// address it held at the last drain.
type slotChange struct {
	slot int32
	prev ip6.Addr
}

// Change is one window slot written since the previous drain.
type Change struct {
	// Slot is the ring slot's index, as in Snapshot's order.
	Slot int
	// Prev is the address the slot held at the previous drain; HadPrev
	// is false, and Prev zero, when the slot was empty then.
	Prev    ip6.Addr
	HadPrev bool
	// Cur is the address the slot holds now.
	Cur ip6.Addr
}

// New returns a Buffer with the given configuration.
func New(cfg Config) *Buffer {
	b := &Buffer{
		maxPer64: cfg.MaxPer64,
		ring:     make([]ip6.Addr, 0, cfg.windowSize()),
		per64:    make(map[uint64]int32),
	}
	if cfg.MaxPer64 > 0 {
		b.slots = make(map[uint64][]int32)
	}
	return b
}

// removeSlot deletes the first occurrence of idx from s, preserving order.
func removeSlot(s []int32, idx int32) []int32 {
	for i, v := range s {
		if v == idx {
			return append(s[:i], s[i+1:]...)
		}
	}
	return s
}

// AddBatch offers a batch of addresses under one lock acquisition and
// returns how many entered the window — all of them: with the per-/64
// cap, a capped prefix's newest observation replaces its oldest window
// entry rather than being dropped, so the window tracks the live
// distribution even for heavy-hitter prefixes.
func (b *Buffer) AddBatch(addrs []ip6.Addr) int {
	b.mu.Lock()
	for _, a := range addrs {
		b.add(a)
	}
	b.mu.Unlock()
	return len(addrs)
}

// add places one address in the window; the caller holds b.mu.
func (b *Buffer) add(a ip6.Addr) {
	b.observed++
	p, _ := a.Uint64s()
	if b.maxPer64 > 0 {
		if idxs := b.slots[p]; len(idxs) >= b.maxPer64 {
			// At the cap: replace this prefix's oldest entry in place and
			// rotate it to the back of the prefix's slot queue.
			oldest := idxs[0]
			b.write(int(oldest), a)
			b.slots[p] = append(idxs[1:], oldest)
			b.deduped++
			return
		}
	}
	var idx int
	if len(b.ring) < cap(b.ring) {
		idx = len(b.ring)
		b.ring = b.ring[:idx+1]
		b.write(idx, a)
	} else {
		op, _ := b.ring[b.next].Uint64s()
		if b.per64[op] <= 1 {
			delete(b.per64, op)
		} else {
			b.per64[op]--
		}
		if b.slots != nil {
			if rest := removeSlot(b.slots[op], int32(b.next)); len(rest) == 0 {
				delete(b.slots, op)
			} else {
				b.slots[op] = rest
			}
		}
		idx = b.next
		b.write(idx, a)
		b.next = (b.next + 1) % len(b.ring)
		b.evicted++
	}
	b.per64[p]++
	if b.slots != nil {
		b.slots[p] = append(b.slots[p], int32(idx))
	}
}

// write stores a in ring slot idx, recording the slot's first change
// since the last drain; the caller holds b.mu.
func (b *Buffer) write(idx int, a ip6.Addr) {
	if b.journaling {
		if w, bit := idx>>6, uint64(1)<<(idx&63); b.dirty[w]&bit == 0 {
			b.dirty[w] |= bit
			b.changes = append(b.changes, slotChange{slot: int32(idx), prev: b.ring[idx]})
		}
	}
	b.ring[idx] = a
}

// Drain appends to dst one Change for every window slot written since the
// previous drain, in no particular order, clears the record and returns
// the extended slice. A slot written several times is reported once.
//
// The buffer keeps no record until it is first drained (by Drain or
// DrainAll); a first Drain reports every filled slot as new. After that
// the record holds at most one entry per slot. A buffer serves one
// draining consumer.
func (b *Buffer) Drain(dst []Change) []Change {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.journaling {
		b.startRecord()
		for i, a := range b.ring {
			dst = append(dst, Change{Slot: i, Cur: a})
		}
		return dst
	}
	for _, c := range b.changes {
		slot := int(c.slot)
		dst = append(dst, Change{Slot: slot, Prev: c.prev, HadPrev: slot < b.drained, Cur: b.ring[slot]})
	}
	b.clearRecord()
	return dst
}

// DrainAll returns a copy of the window, as Snapshot does, and clears the
// change record in the same critical section: the starting point of a
// consumer that builds its per-slot state from the whole window and then
// follows it with Drain.
func (b *Buffer) DrainAll() []ip6.Addr {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.journaling {
		b.clearRecord()
	} else {
		b.startRecord()
	}
	out := make([]ip6.Addr, len(b.ring))
	copy(out, b.ring)
	return out
}

// startRecord turns the change record on, as of the current window; the
// caller holds b.mu.
func (b *Buffer) startRecord() {
	b.journaling = true
	b.dirty = make([]uint64, (cap(b.ring)+63)/64)
	b.drained = len(b.ring)
}

// clearRecord empties the change record, as of the current window; the
// caller holds b.mu.
func (b *Buffer) clearRecord() {
	for _, c := range b.changes {
		b.dirty[c.slot>>6] = 0
	}
	b.changes = b.changes[:0]
	b.drained = len(b.ring)
}

// Snapshot returns a copy of the current window contents in ring slot
// order. Writers wait for one copy of the ring. The returned slice is
// owned by the caller.
func (b *Buffer) Snapshot() []ip6.Addr {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]ip6.Addr, len(b.ring))
	copy(out, b.ring)
	return out
}

// Len returns the number of addresses currently in the window.
func (b *Buffer) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.ring)
}

// Stats returns a snapshot of the buffer's counters.
func (b *Buffer) Stats() Stats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return Stats{
		Observed:       b.observed,
		Accepted:       b.observed,
		Deduped:        b.deduped,
		Evicted:        b.evicted,
		Window:         len(b.ring),
		WindowCapacity: cap(b.ring),
		Prefixes64:     len(b.per64),
	}
}
