package core

import (
	"math/bits"
	"math/rand/v2"

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
// Each filled slot refers to a row: one distinct (code, clamp) vector of
// the window, held once with the count of slots using it. A row stores
// its packed codes, its Bayesian-network log terms (bayes.Scorer.Terms)
// and its within-value density terms, all computed when the row is
// created. A row no slot uses any more is reused for the next new vector.
// Serving windows repeat heavily (a 16,384-address window holds one to
// two thousand distinct vectors), so the rows are far smaller than the
// per-address data they stand for.
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
	// keys are the per-column hash multipliers of the row index.
	keys []uint64

	// slots[s] is the row slot s refers to, or noRow while it is empty;
	// filled counts the slots that are not.
	slots  []uint32
	filled int
	// pages holds the rows, rowsPerPage to a page; rows counts the rows
	// ever created. Fixed pages let the row storage grow without copying,
	// with less than one page of slack.
	pages []*rowPage
	rows  int
	// free lists rows whose count fell to zero, for reuse.
	free []uint32
	// index is an open-addressing table over the live rows in the style of
	// ip6.Set: a power-of-two table at most 3/4 full, probed linearly from
	// the slot the hash's top bits pick, holding r+1 for row r (0 is
	// empty). Removing a row shifts the rest of its probe run back, so
	// the table needs no tombstones.
	index []uint32
	shift uint // 64 - log2(len(index))

	// w holds the live code and clamp counts; Encoding fills in the sums.
	w WindowEncoding
	// vec and packed are per-Set scratch.
	vec    []int
	packed []int32
}

// noRow marks an empty slot.
const noRow = ^uint32(0)

// rowPage stores rowsPerPage rows. Row i of the page has its packed codes
// at codes[i*k:], its terms at terms[i*2k:] (k BN terms, then k within
// terms), its index hash at hashes[i] and its slot count at refs[i]. A
// code is packed as idx<<1 | 1 for a covered value and idx<<1 for a
// clamped one, as the compiled encoder packs it, so equal packed vectors
// are equal (code, clamp) vectors.
type rowPage struct {
	codes  []int32
	terms  []float64
	hashes [rowsPerPage]uint64
	refs   [rowsPerPage]int32
}

// rowsPerPage is the number of rows one page stores (1<<rowPageShift).
const (
	rowPageShift = 6
	rowsPerPage  = 1 << rowPageShift
)

// row returns the page holding row r and the row's place in it.
func (s *WindowState) row(r uint32) (*rowPage, int) {
	return s.pages[r>>rowPageShift], int(r & (rowsPerPage - 1))
}

// minWindowIndex is the smallest row index a WindowState allocates.
const minWindowIndex = 64

// NewWindowState returns an empty window state for the model, sized for a
// window of n slots numbered from 0. Setting a slot at or past n grows it.
func (m *Model) NewWindowState(n int) *WindowState {
	k := len(m.Segments)
	s := &WindowState{
		slots:        make([]uint32, n),
		enc:          m.Encoder().Compiled(),
		sc:           m.Scorer(),
		k:            k,
		outOfSupport: make([]float64, k),
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
	// Observed addresses come from clients, so the hash keys are drawn at
	// random and a client cannot choose addresses whose vectors collide.
	//eip:nondeterministic-ok the seed places rows in the hash index only; no result depends on it
	x := rand.Uint64()
	s.keys = make([]uint64, k)
	for i := range s.keys {
		x += 0x9e3779b97f4a7c15 // splitmix64
		z := x
		z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		s.keys[i] = (z ^ z>>31) | 1
	}
	s.allocIndex(minWindowIndex)
	return s
}

// Set makes slot hold address a, replacing what it held before.
func (s *WindowState) Set(slot int, a ip6.Addr) {
	for slot >= len(s.slots) {
		s.slots = append(s.slots, noRow)
	}
	// The new vector is counted before the old one is released, so a slot
	// that keeps its vector never frees and rebuilds its row.
	old := s.slots[slot]
	s.slots[slot] = s.acquire(a)
	if old == noRow {
		s.filled++
	} else {
		s.release(old)
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
		pg, i := s.row(r)
		t := pg.terms[i*2*k : (i+1)*2*k]
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
	n := 4*cap(s.slots) + 8*cap(s.pages) + 4*cap(s.free) + 4*cap(s.index) +
		8*(cap(s.outOfSupport)+cap(s.keys)+cap(s.vec)+cap(s.w.Clamped)) + 4*cap(s.packed)
	for _, pg := range s.pages {
		n += 4*cap(pg.codes) + 8*cap(pg.terms) + rowsPerPage*(8+4)
	}
	for _, c := range s.w.CodeCounts {
		n += 8 * cap(c)
	}
	return n
}

// acquire encodes a, counts it and returns its row, creating the row when
// the vector is new to the window.
func (s *WindowState) acquire(a ip6.Addr) uint32 {
	hi, lo := a.Uint64s()
	var h uint64
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
		h += uint64(p) * s.keys[i]
	}
	p1, p0 := bits.Mul64(h, 0x9e3779b97f4a7c15)
	h = p1 ^ p0

	mask := len(s.index) - 1
	i := int(h >> s.shift)
	for ; s.index[i] != 0; i = (i + 1) & mask {
		r := s.index[i] - 1
		if pg, j := s.row(r); pg.hashes[j] == h && s.equalRow(pg, j) {
			pg.refs[j]++
			return r
		}
	}
	r := s.newRow(h)
	s.index[i] = r + 1
	if s.rows-len(s.free) > len(s.index)/4*3 {
		s.allocIndex(2 * len(s.index))
	}
	return r
}

// equalRow reports whether row j of page pg holds the packed vector in
// s.packed.
func (s *WindowState) equalRow(pg *rowPage, j int) bool {
	row := pg.codes[j*s.k : (j+1)*s.k]
	for i, p := range s.packed {
		if row[i] != p {
			return false
		}
	}
	return true
}

// newRow stores the packed vector in s.packed as a row with one reference
// and computes its terms.
func (s *WindowState) newRow(h uint64) uint32 {
	k := s.k
	var r uint32
	if n := len(s.free); n > 0 {
		r = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		r = uint32(s.rows)
		s.rows++
		if int(r>>rowPageShift) == len(s.pages) {
			s.pages = append(s.pages, &rowPage{
				codes: make([]int32, rowsPerPage*k),
				terms: make([]float64, rowsPerPage*2*k),
			})
		}
	}
	pg, j := s.row(r)
	copy(pg.codes[j*k:(j+1)*k], s.packed)
	pg.hashes[j] = h
	pg.refs[j] = 1
	t := pg.terms[j*2*k : (j+1)*2*k]
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
	return r
}

// release uncounts one slot's use of row r and frees the row when no slot
// uses it any more.
func (s *WindowState) release(r uint32) {
	pg, j := s.row(r)
	for i, p := range pg.codes[j*s.k : (j+1)*s.k] {
		if p&1 == 0 {
			s.w.Clamped[i]--
		}
		s.w.CodeCounts[i][p>>1]--
	}
	if pg.refs[j]--; pg.refs[j] > 0 {
		return
	}
	s.unindex(r)
	s.free = append(s.free, r)
}

// home returns the index slot row r's hash picks.
func (s *WindowState) home(r uint32) int {
	pg, j := s.row(r)
	return int(pg.hashes[j] >> s.shift)
}

// unindex removes row r from the index, shifting later entries of its
// probe run back so that every remaining row stays reachable from its
// home slot.
func (s *WindowState) unindex(r uint32) {
	mask := len(s.index) - 1
	i := s.home(r)
	for s.index[i] != r+1 {
		i = (i + 1) & mask
	}
	for j := (i + 1) & mask; s.index[j] != 0; j = (j + 1) & mask {
		// The entry at j may move to the hole at i unless its home slot
		// lies cyclically in (i, j].
		if (j-s.home(s.index[j]-1))&mask >= (j-i)&mask {
			s.index[i] = s.index[j]
			i = j
		}
	}
	s.index[i] = 0
}

// allocIndex rebuilds the index at size slots, a power of two.
func (s *WindowState) allocIndex(size int) {
	s.index = make([]uint32, size)
	s.shift = uint(64 - bits.TrailingZeros(uint(size)))
	mask := size - 1
	for r := uint32(0); int(r) < s.rows; r++ {
		if pg, j := s.row(r); pg.refs[j] == 0 {
			continue
		}
		i := s.home(r)
		for s.index[i] != 0 {
			i = (i + 1) & mask
		}
		s.index[i] = r + 1
	}
}
