package mining

import (
	"math/bits"
	"math/rand/v2"

	"entropyip/internal/ip6"
	"entropyip/internal/parallel"
)

// EncodeDistinct encodes every address and tallies the distinct code
// vectors: rows holds each distinct vector once, in order of first
// occurrence in addrs, and counts[i] is how many addresses encoded to
// rows[i], so the counts sum to len(addrs). This is the training
// representation: encoded addresses repeat heavily (a few percent of the
// vectors are distinct), so the Bayesian network learns from the tally
// and the one-row-per-address matrix is never built.
//
// Shards of addrs (workers <= 0 selects GOMAXPROCS) encode through the
// compiled tables into tallies of their own, which merge in shard order,
// so rows and counts are identical for any worker count. The rows share
// one backing array. As in EncodeInto, a segment with no mined values
// encodes as -1; core.Build rejects such models before encoding.
func (e *Encoder) EncodeDistinct(addrs []ip6.Addr, workers int) (rows [][]int, counts []int) {
	c := e.Compiled()
	cols := len(e.Models)
	parts := parallel.MapShards(workers, len(addrs), func(s parallel.Shard) *tally {
		t := newTally(cols, 0)
		vec := make([]int, cols)
		vec32 := make([]int32, cols)
		for _, a := range addrs[s.Start:s.End] {
			c.EncodeInto(vec, a)
			for i, v := range vec {
				vec32[i] = int32(v)
			}
			t.add(vec32, 1)
		}
		return t
	})
	if len(parts) == 0 {
		return nil, nil
	}
	t := parts[0]
	if len(parts) > 1 {
		n := 0
		for _, p := range parts {
			n += p.len()
		}
		t = newTally(cols, n)
		for _, p := range parts {
			for r, w := range p.counts {
				t.add(p.row(r), w)
			}
		}
	}
	flat := make([]int, len(t.codes))
	for i, v := range t.codes {
		flat[i] = int(v)
	}
	rows = make([][]int, t.len())
	for r := range rows {
		rows[r] = flat[r*cols : (r+1)*cols : (r+1)*cols]
	}
	return rows, t.counts
}

// tally counts distinct code vectors of one width. Rows are numbered in
// order of first insertion and keep their number for the tally's life,
// whatever their count. The vectors sit back to back in codes with their counts
// in a parallel slice; slots is a flat open-addressing index over them, in
// the style of ip6.Set: a power-of-two table filled to at most 3/4 and
// probed linearly from the slot the hash's top bits pick. A slot holds r+1
// for row r (0 is empty), and a probe confirms a match against the codes.
//
// Each tally hashes with keys drawn from a random seed, so vectors chosen
// by a client (uploaded training addresses, observed traffic) cannot drive
// the index into long probe chains. The seed decides only where a row sits
// in the index, never row numbers or counts.
type tally struct {
	cols   int
	keys   []uint64 // per-column hash multipliers
	codes  []int32
	counts []int
	slots  []uint32
	shift  uint // 64 - log2(len(slots))
	limit  int  // 3/4 of len(slots)
}

// minTallySlots is the smallest index a tally allocates.
const minTallySlots = 64

// newTally returns an empty tally of vectors cols codes wide, with room
// for n distinct vectors below the index's load limit.
func newTally(cols, n int) *tally {
	size := minTallySlots
	for size/4*3 < n {
		size *= 2
	}
	t := &tally{
		cols:   cols,
		keys:   make([]uint64, cols),
		codes:  make([]int32, 0, n*cols),
		counts: make([]int, 0, n),
	}
	// The keys are odd multipliers, one per column, so equal codes in
	// different columns hash apart: the splitmix64 sequence from the seed.
	//eip:nondeterministic-ok the seed places rows in the hash index only; row numbers and counts do not depend on it
	x := rand.Uint64()
	for i := range t.keys {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		t.keys[i] = (z ^ z>>31) | 1
	}
	t.alloc(size)
	return t
}

// alloc gives the tally an empty index of size slots, a power of two.
func (t *tally) alloc(size int) {
	t.slots = make([]uint32, size)
	t.shift = uint(64 - bits.TrailingZeros(uint(size)))
	t.limit = size / 4 * 3
}

// len returns the number of rows, counted or not.
func (t *tally) len() int { return len(t.counts) }

// row returns the codes of row r; the caller must not modify them.
func (t *tally) row(r int) []int32 {
	return t.codes[r*t.cols : (r+1)*t.cols : (r+1)*t.cols]
}

// add counts vec w more times and returns its row. A vector seen for the
// first time is copied in as row len()-1.
func (t *tally) add(vec []int32, w int) int {
	mask := len(t.slots) - 1
	for i := int(t.hash(vec) >> t.shift); ; i = (i + 1) & mask {
		s := int(t.slots[i])
		if s == 0 {
			t.codes = append(t.codes, vec...)
			t.counts = append(t.counts, w)
			t.slots[i] = uint32(len(t.counts))
			if len(t.counts) > t.limit {
				t.grow()
			}
			return len(t.counts) - 1
		}
		if equalCodes(t.row(s-1), vec) {
			t.counts[s-1] += w
			return s - 1
		}
	}
}

// grow doubles the index and re-places every row by its hash.
func (t *tally) grow() {
	t.alloc(2 * len(t.slots))
	mask := len(t.slots) - 1
	for r := range t.counts {
		i := int(t.hash(t.row(r)) >> t.shift)
		for t.slots[i] != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = uint32(r + 1)
	}
}

// hash hashes a code vector: the sum of each code times its column's key,
// with every product independent of the others, and the sum multiplied
// into 128 bits by a large odd constant and the product's two words
// folded, so every bit of it reaches the top bits that pick a slot.
func (t *tally) hash(vec []int32) uint64 {
	var h uint64
	for i, c := range vec {
		h += uint64(c) * t.keys[i]
	}
	p1, p0 := bits.Mul64(h, 0x9e3779b97f4a7c15)
	return p1 ^ p0
}

// equalCodes reports whether two vectors of one width are equal.
func equalCodes(a, b []int32) bool {
	for i, v := range a {
		if b[i] != v {
			return false
		}
	}
	return true
}
