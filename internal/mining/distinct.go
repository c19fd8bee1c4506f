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
//
// The tallies of one call hash with keys drawn from a random seed, so
// training addresses uploaded to a server cannot be chosen to drive the
// tables into long probe chains. The seed decides only where a vector
// sits in the index, never the order or the counts returned.
func (e *Encoder) EncodeDistinct(addrs []ip6.Addr, workers int) (rows [][]int, counts []int) {
	c := e.Compiled()
	cols := len(e.Models)
	//eip:nondeterministic-ok the seed places vectors in the hash index only; rows and counts do not depend on it
	keys := columnKeys(cols, rand.Uint64())
	parts := parallel.MapShards(workers, len(addrs), func(s parallel.Shard) *tally {
		t := newTally(keys, 0)
		vec := make([]int, cols)
		for _, a := range addrs[s.Start:s.End] {
			c.EncodeInto(vec, a)
			t.add(vec, t.hashCodes(vec), 1)
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
			n += len(p.counts)
		}
		t = newTally(keys, n)
		for _, p := range parts {
			for i, w := range p.counts {
				t.add(p.row(i), p.hashes[i], w)
			}
		}
	}
	rows = make([][]int, len(t.counts))
	for i := range rows {
		rows[i] = t.row(i)
	}
	return rows, t.counts
}

// tally counts distinct code vectors. The vectors sit back to back in
// flat in order of first insertion, with their counts and hashes in
// parallel slices. slots is a flat open-addressing index over them, in
// the style of ip6.Set: a power-of-two table filled to at most 3/4 and
// probed linearly from the slot the hash's top bits pick. A slot holds
// i+1 for vector i (0 is empty), and a probe confirms a match by
// comparing the hash and then the codes themselves.
type tally struct {
	cols   int
	keys   []uint64 // per-column hash multipliers, shared by merged tallies
	flat   []int
	counts []int
	hashes []uint64
	slots  []uint32
	shift  uint // 64 - log2(len(slots))
	limit  int  // 3/4 of len(slots)
}

// minTallySlots is the smallest index a tally allocates.
const minTallySlots = 64

// newTally returns an empty tally of vectors one code per key wide, with
// room for n distinct vectors below the load limit.
func newTally(keys []uint64, n int) *tally {
	cols := len(keys)
	size := minTallySlots
	for size/4*3 < n {
		size *= 2
	}
	t := &tally{
		cols:   cols,
		keys:   keys,
		flat:   make([]int, 0, n*cols),
		counts: make([]int, 0, n),
		hashes: make([]uint64, 0, n),
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

// row returns distinct vector i; its capacity ends with it.
func (t *tally) row(i int) []int {
	return t.flat[i*t.cols : (i+1)*t.cols : (i+1)*t.cols]
}

// add counts vec, whose hash is h, w more times. A vector seen for the
// first time is copied in.
func (t *tally) add(vec []int, h uint64, w int) {
	mask := len(t.slots) - 1
	for i := int(h >> t.shift); ; i = (i + 1) & mask {
		s := int(t.slots[i])
		if s == 0 {
			t.flat = append(t.flat, vec...)
			t.counts = append(t.counts, w)
			t.hashes = append(t.hashes, h)
			t.slots[i] = uint32(len(t.counts))
			if len(t.counts) > t.limit {
				t.grow()
			}
			return
		}
		if t.hashes[s-1] == h && equalCodes(t.row(s-1), vec) {
			t.counts[s-1] += w
			return
		}
	}
}

// grow doubles the index and re-places every vector by its stored hash.
func (t *tally) grow() {
	t.alloc(2 * len(t.slots))
	mask := len(t.slots) - 1
	for v, h := range t.hashes {
		i := int(h >> t.shift)
		for t.slots[i] != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = uint32(v + 1)
	}
}

// hashCodes hashes a code vector: the sum of each code times its
// column's key, with every product independent of the others, and the
// sum multiplied into 128 bits by a large odd constant and the product's
// two words folded, so every bit of it reaches the top bits that pick a
// slot.
func (t *tally) hashCodes(vec []int) uint64 {
	var h uint64
	for i, c := range vec {
		h += uint64(c) * t.keys[i]
	}
	p1, p0 := bits.Mul64(h, 0x9e3779b97f4a7c15)
	return p1 ^ p0
}

// columnKeys returns cols odd multipliers, one per column, so equal codes
// in different columns hash apart: the splitmix64 sequence from seed.
func columnKeys(cols int, seed uint64) []uint64 {
	keys := make([]uint64, cols)
	x := seed
	for i := range keys {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		keys[i] = (z ^ z>>31) | 1
	}
	return keys
}

// equalCodes reports whether two vectors of one width are equal.
func equalCodes(a, b []int) bool {
	for i, v := range a {
		if b[i] != v {
			return false
		}
	}
	return true
}
