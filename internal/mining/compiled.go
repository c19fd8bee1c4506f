package mining

import (
	"math"
	"math/bits"
	"slices"

	"entropyip/internal/ip6"
	"entropyip/internal/segment"
)

// CompiledEncoder is the flat-table form of the per-segment reference
// scans, SegmentModel.Encode and EncodeNearest: the serving-plane
// analogue of bayes.Sampler. The scans walk every mined element per
// value, and the encode path runs per address on ingest, drift scoring
// and likelihood evaluation. NewEncoder resolves every possible outcome
// once: each segment's value axis is cut into elementary intervals on
// which the scans' answer is constant (element bounds plus the one switch
// point of each gap between elements), so one encode is a table lookup
// (narrow segments) or a short binary search (wide ones), with no
// fallback path and no per-address allocation.
//
// The compiled tables answer exactly what Encode/EncodeNearest answer —
// TestCompiledEncoderMatchesReference pins the equivalence exhaustively on
// narrow segments and adversarially on wide ones.
type CompiledEncoder struct {
	segs []compiledSegment
}

// directMaxNybbles is the widest segment compiled to a direct value→code
// table (16^3 = 4096 entries, 8 KiB as int16); wider segments use sorted
// elementary intervals with a binary search.
const directMaxNybbles = 3

// compiledSegment is one segment's resolved lookup structure. Codes are
// packed as idx<<1|1 for covered values and idx<<1 for clamped ones
// (nearest-element fallback), so coverage travels with the lookup for
// free; -1 marks a segment with no mined values at all.
type compiledSegment struct {
	placement
	// direct[v] is the packed code of value v (narrow segments only).
	direct []int16
	// bounds[i] is the first value of elementary interval i; the interval
	// ends where the next begins. bounds[0] is always 0 and the last
	// interval runs to the segment's maximum value. Empty for direct and
	// zero-arity segments.
	bounds []uint64
	codes  []int32
	// logWidth[k] is log(Width) of element k — the within-range density
	// term the likelihood path charges per covered value, precomputed so
	// scoring does not re-take math.Log per address.
	logWidth []float64
}

// packedCode builds the packed code for a segment value from the
// reference scan. EncodeNearest gives Encode's answer when an element
// covers v and an element at distance > 0 otherwise, so the covered bit
// is whether its answer contains v.
func packedCode(m *SegmentModel, v uint64) int32 {
	idx, ok := m.EncodeNearest(v)
	if !ok {
		return -1
	}
	code := int32(idx) << 1
	if m.Values[idx].Contains(v) {
		code |= 1
	}
	return code
}

// compile flattens the per-segment scans into lookup tables. The result
// is immutable and safe for concurrent use.
func compile(models []*SegmentModel) *CompiledEncoder {
	c := &CompiledEncoder{segs: make([]compiledSegment, len(models))}
	for i, m := range models {
		cs := compiledSegment{placement: newPlacement(m.Seg)}
		cs.logWidth = make([]float64, len(m.Values))
		for k, v := range m.Values {
			cs.logWidth[k] = math.Log(float64(v.Width()))
		}
		if len(m.Values) > 0 {
			bounds, codes := compileIntervals(m)
			if m.Seg.Width <= directMaxNybbles {
				cs.direct = compileDirect(m.Seg.MaxValue(), bounds, codes)
			} else {
				cs.bounds, cs.codes = bounds, codes
			}
		}
		c.segs[i] = cs
	}
	return c
}

// compileDirect expands the elementary intervals of a narrow segment
// into a value→code table over its whole domain.
func compileDirect(max uint64, bounds []uint64, codes []int32) []int16 {
	direct := make([]int16, max+1)
	for i, lo := range bounds {
		end := uint64(len(direct))
		if i+1 < len(bounds) {
			end = bounds[i+1]
		}
		for v := lo; v < end; v++ {
			direct[v] = int16(codes[i])
		}
	}
	return direct
}

// compileIntervals cuts the segment's value axis into elementary
// intervals on which the reference scan's answer is constant, asking the
// reference once or twice per piece:
//
//  1. every element's Lo and Hi+1 is a cut — inside one piece, the set of
//     containing elements (and hence Encode's answer) cannot change, so a
//     covered piece takes its first value's code;
//  2. an uncovered piece [lo, hi] between two elements has lo = Hi+1 of
//     some left element and hi+1 = Lo of some right one; every other
//     element is strictly farther, so EncodeNearest answers the left
//     neighbour (its code at lo), then the right one (its code at hi),
//     switching once where the right distance drops below the left — or,
//     at an exact tie, where EncodeNearest's strict < keeps the lower
//     index. A piece touching 0 or the segment's maximum has only one
//     neighbour and never switches.
func compileIntervals(m *SegmentModel) (bounds []uint64, codes []int32) {
	max := m.Seg.MaxValue()
	cuts := append(make([]uint64, 0, 2*len(m.Values)+1), 0)
	for _, v := range m.Values {
		cuts = append(cuts, v.Lo)
		if v.Hi < max {
			cuts = append(cuts, v.Hi+1)
		}
	}
	slices.Sort(cuts)
	cuts = slices.Compact(cuts)

	for ci, lo := range cuts {
		hi := max
		if ci+1 < len(cuts) {
			hi = cuts[ci+1] - 1
		}
		code := packedCode(m, lo)
		bounds = append(bounds, lo)
		codes = append(codes, code)
		if code&1 == 1 {
			continue
		}
		right := packedCode(m, hi)
		if right == code {
			continue
		}
		// Values v in (l, r) are v-l from the left element and r-v from
		// the right one; the right is nearer from mid+1 on, and at mid
		// itself when the distances tie and it has the lower index.
		l, r := lo-1, hi+1
		mid := l + (r-l)/2
		s := mid + 1
		if (r-l)%2 == 0 && right < code {
			s = mid
		}
		bounds = append(bounds, s)
		codes = append(codes, right)
	}
	return bounds, codes
}

// lookup returns the packed code of one segment value.
func (cs *compiledSegment) lookup(v uint64) int32 {
	if cs.direct != nil {
		return int32(cs.direct[v])
	}
	if cs.bounds == nil {
		return -1 // no mined values
	}
	// The last interval starting at or below v (bounds[0] = 0 always
	// qualifies). The halving runs a fixed number of steps per segment,
	// and each step moves base by half unless v is below the bound there:
	// the subtraction's borrow masks the move, so random values cost no
	// branch mispredictions.
	base, n := 0, len(cs.bounds)
	for n > 1 {
		half := n >> 1
		_, below := bits.Sub64(v, cs.bounds[base+half], 0)
		base += half & int(below-1)
		n -= half
	}
	return cs.codes[base]
}

// EncodeSegment resolves segment seg of the address whose 64-bit halves
// (ip6.Addr.Uint64s) are hi and lo: the element index and whether the
// value was covered by a mined element (false means the nearest element
// was substituted, as SegmentModel.EncodeNearest does). idx is -1 only
// for a segment with no mined values.
func (c *CompiledEncoder) EncodeSegment(seg int, hi, lo uint64) (idx int, covered bool) {
	cs := &c.segs[seg]
	return unpack(cs.lookup(cs.extract(hi, lo)))
}

// unpack splits a packed code into the element index and its coverage.
func unpack(p int32) (idx int, covered bool) {
	if p < 0 {
		return -1, false
	}
	return int(p >> 1), p&1 == 1
}

// LogWidth returns log(Width) of element idx of segment seg — the
// within-range density term of the likelihood path.
func (c *CompiledEncoder) LogWidth(seg, idx int) float64 {
	return c.segs[seg].logWidth[idx]
}

// EncodeInto encodes an address into the caller's vector (one slot per
// segment) without allocating. exact reports whether every segment
// value was covered by a mined element; clamped segments hold the nearest
// element, as SegmentModel.EncodeNearest picks it. When any segment has
// no mined values at all its slot is -1 and exact is false.
func (c *CompiledEncoder) EncodeInto(dst []int, a ip6.Addr) (exact bool) {
	hi, lo := a.Uint64s()
	exact = true
	for i := range c.segs {
		// EncodeSegment, written out so the lookup inlines here.
		cs := &c.segs[i]
		idx, covered := unpack(cs.lookup(cs.extract(hi, lo)))
		dst[i] = idx
		exact = exact && covered
	}
	return exact
}

// Compiled returns the encoder's flat-table form.
func (e *Encoder) Compiled() *CompiledEncoder { return e.compiled }

// placement locates a segment in the address's two 64-bit halves. A
// segment value v sits at hi bits v<<hiL | v>>hiR and lo bits v<<loL; a Go
// shift by 64 or more yields 0, which switches a term off, so one formula
// covers segments in either half and segments straddling bit 64. The same
// shifts reversed read the value back, so encoding and decoding share one
// placement and neither expands the address into nybbles.
type placement struct {
	hiL, hiR, loL uint
	// mask keeps the segment's own bits: MaxValue of its width.
	mask uint64
}

// newPlacement computes the placement of a segment.
func newPlacement(seg segment.Segment) placement {
	pl := placement{hiL: 64, hiR: 64, loL: 64, mask: seg.MaxValue()}
	// p is the bit offset of the segment's least significant bit, counted
	// from the address's least significant bit.
	if p := uint(4 * (ip6.NybbleCount - seg.End())); p >= 64 {
		pl.hiL = p - 64
	} else {
		pl.loL, pl.hiR = p, 64-p
	}
	return pl
}

// place returns the bits of segment value v in the address halves.
func (pl *placement) place(v uint64) (hi, lo uint64) {
	v &= pl.mask
	return v<<pl.hiL | v>>pl.hiR, v << pl.loL
}

// extract returns the segment value held in the address halves.
func (pl *placement) extract(hi, lo uint64) uint64 {
	return (hi>>pl.hiL | hi<<pl.hiR | lo>>pl.loL) & pl.mask
}
