package core

import (
	"entropyip/internal/bayes"
	"entropyip/internal/ip6"
	"entropyip/internal/mining"
)

// WindowState is EncodeWindow kept up to date one window slot at a time,
// for a consumer that scores the same window again after only some of its
// slots changed (drift evaluation on the observe path). Setting a slot
// costs one encode of the new address and moves the integer code and
// clamp counts by delta; Encoding then replays the two float sums over
// cached terms, so it never re-encodes an unchanged address.
//
// Each filled slot refers to a row of a mining.Tally: one distinct (code,
// clamp) vector of the window, counted once per slot using it. Beside the
// tally the state keeps each row's Bayesian-network log terms
// (bayes.Scorer.Terms) and within-value density terms, computed when the
// row is created. A row no slot uses any more stays, terms and all, and
// comes back if its vector returns; once such dead rows outnumber both the
// live ones and rebuildFloor, the state rebuilds the tally and the terms
// from the live rows. Serving windows repeat heavily (a 16,384-address
// window holds one to two thousand distinct vectors), so the rows are far
// smaller than the per-address data they stand for.
//
// Encoding's BNLogLikelihood and WithinLogDensity are the same addition
// chains EncodeWindow runs over the addresses in slot order, term for
// term, so the result is bit for bit EncodeWindow's on those addresses.
// The within terms are stored negated where EncodeWindow subtracts: in
// IEEE arithmetic x − y is x + (−y) exactly.
//
// A WindowState belongs to one model and is not safe for concurrent use.
type WindowState struct {
	enc *mining.CompiledEncoder
	sc  *bayes.Scorer
	k   int
	// outOfSupport[i] is segment i's within term for a clamped value.
	outOfSupport []float64

	// slots[s] is the row slot s refers to, or noRow while it is empty;
	// filled counts the slots that are not.
	slots  []uint32
	filled int
	// rows tallies the slots' vectors, packed as the compiled encoder
	// packs a code: idx<<1 | 1 for a covered value and idx<<1 for a
	// clamped one, so equal packed vectors are equal (code, clamp)
	// vectors. live counts the rows with a nonzero count.
	rows *mining.Tally
	live int
	// pages holds the rows' terms, rowsPerPage rows to a page: row r's k
	// BN terms, then its k within terms. Fixed pages let the terms grow
	// without copying, with less than one page of slack.
	pages [][]float64

	// w holds the live code and clamp counts; Encoding fills in the sums.
	w WindowEncoding
	// vec and packed are per-Set scratch.
	vec    []int
	packed []int32
}

// noRow marks an empty slot.
const noRow = ^uint32(0)

// rowsPerPage is the number of rows one term page holds (1<<rowPageShift).
const (
	rowPageShift = 6
	rowsPerPage  = 1 << rowPageShift
)

// rebuildFloor is the number of dead rows a state always tolerates, so a
// small window does not rebuild on every few Sets.
const rebuildFloor = 64

// terms returns row r's 2k terms.
func (s *WindowState) terms(r uint32) []float64 {
	i := int(r&(rowsPerPage-1)) * 2 * s.k
	return s.pages[r>>rowPageShift][i : i+2*s.k]
}

// NewWindowState returns an empty window state for the model, sized for a
// window of n slots numbered from 0. Setting a slot at or past n grows it.
func (m *Model) NewWindowState(n int) *WindowState {
	k := len(m.Segments)
	s := &WindowState{
		slots:        make([]uint32, n),
		enc:          m.encoder.Compiled(),
		sc:           m.scorer,
		k:            k,
		outOfSupport: make([]float64, k),
		rows:         mining.NewTally(k, 0),
		vec:          make([]int, k),
		packed:       make([]int32, k),
		w: WindowEncoding{
			CodeCounts: make([][]int, k),
			Clamped:    make([]int, k),
		},
	}
	for i := range s.slots {
		s.slots[i] = noRow
	}
	for i, sm := range m.Segments {
		s.outOfSupport[i] = outOfSupportLogProb(sm.Seg.Width)
		s.w.CodeCounts[i] = make([]int, sm.Arity())
	}
	return s
}

// Set makes slot hold address a, replacing what it held before.
func (s *WindowState) Set(slot int, a ip6.Addr) {
	for slot >= len(s.slots) {
		s.slots = append(s.slots, noRow)
	}
	// The new vector is counted before the old one is released, so a slot
	// that keeps its vector never lets its row die.
	old := s.slots[slot]
	s.slots[slot] = s.acquire(a)
	if old == noRow {
		s.filled++
		return
	}
	s.release(old)
	if dead := s.rows.Len() - s.live; dead > s.live && dead > rebuildFloor {
		s.rebuild()
	}
}

// Len returns the number of filled slots.
func (s *WindowState) Len() int { return s.filled }

// Encoding returns the window's encoding summary, as EncodeWindow returns
// it for the filled slots' addresses in slot order. The result shares the
// state's count slices: it is read-only and valid until the next Set.
func (s *WindowState) Encoding() *WindowEncoding {
	k := s.k
	bn, within := 0.0, 0.0
	for _, r := range s.slots {
		if r == noRow {
			continue
		}
		t := s.terms(r)
		bt, wt := t[:k], t[k:]
		for j, x := range bt {
			bn += x
			within += wt[j]
		}
	}
	s.w.BNLogLikelihood = bn
	s.w.WithinLogDensity = within
	return &s.w
}

// Bytes returns the memory the state holds, counted from the capacities
// of its slices.
func (s *WindowState) Bytes() int {
	n := 4*cap(s.slots) + s.rows.Bytes() + 8*cap(s.pages) +
		8*(cap(s.outOfSupport)+cap(s.vec)+cap(s.w.Clamped)) + 4*cap(s.packed)
	for _, pg := range s.pages {
		n += 8 * cap(pg)
	}
	for _, c := range s.w.CodeCounts {
		n += 8 * cap(c)
	}
	return n
}

// acquire encodes a, counts it and returns its row, computing the row's
// terms when the vector is new to the tally.
func (s *WindowState) acquire(a ip6.Addr) uint32 {
	hi, lo := a.Uint64s()
	for i := range s.packed {
		idx, covered := s.enc.EncodeSegment(i, hi, lo)
		if idx < 0 {
			idx = 0 // unreachable: mined segments have arity >= 1
		}
		p := int32(idx) << 1
		if covered {
			p |= 1
		} else {
			s.w.Clamped[i]++
		}
		s.w.CodeCounts[i][idx]++
		s.packed[i] = p
	}
	n := s.rows.Len()
	r := s.rows.Add(s.packed, 1)
	if s.rows.Count(r) == 1 {
		s.live++
	}
	if r == n {
		s.newTerms(uint32(r))
	}
	return uint32(r)
}

// newTerms computes the terms of new row r, whose vector is in s.packed.
func (s *WindowState) newTerms(r uint32) {
	k := s.k
	if int(r>>rowPageShift) == len(s.pages) {
		s.pages = append(s.pages, make([]float64, rowsPerPage*2*k))
	}
	t := s.terms(r)
	for i, p := range s.packed {
		idx := int(p >> 1)
		s.vec[i] = idx
		if p&1 == 1 {
			t[k+i] = -s.enc.LogWidth(i, idx)
		} else {
			t[k+i] = s.outOfSupport[i]
		}
	}
	s.sc.Terms(t[:k], s.vec)
}

// release uncounts one slot's use of row r.
func (s *WindowState) release(r uint32) {
	for i, p := range s.rows.Row(int(r)) {
		if p&1 == 0 {
			s.w.Clamped[i]--
		}
		s.w.CodeCounts[i][p>>1]--
	}
	s.rows.Uncount(int(r))
	if s.rows.Count(int(r)) == 0 {
		s.live--
	}
}

// rebuild drops the dead rows: the live rows move, in row order, into a
// fresh tally and to the front of the term pages, and the slots follow
// them. A row's new number is never above its old one, so its terms move
// down in place.
func (s *WindowState) rebuild() {
	old := s.rows
	s.rows = mining.NewTally(s.k, s.live)
	remap := make([]uint32, old.Len())
	for r := range remap {
		if c := old.Count(r); c > 0 {
			nr := uint32(s.rows.Add(old.Row(r), c))
			copy(s.terms(nr), s.terms(uint32(r)))
			remap[r] = nr
		}
	}
	for i, r := range s.slots {
		if r != noRow {
			s.slots[i] = remap[r]
		}
	}
	keep := (s.live + rowsPerPage - 1) >> rowPageShift
	clear(s.pages[keep:])
	s.pages = s.pages[:keep]
}
