package mining

import (
	"encoding/binary"
	"math/rand"

	"entropyip/internal/ip6"
)

// CompiledDecoder is the flat-table form of Encoder.Decode, the decode
// half of candidate generation. The readable decode (DecodeReference)
// writes every segment through Segment.Set, which expands the whole
// address into 32 nybbles, sets the field and packs it back: two Nybbles
// round trips per segment per candidate. Compiling resolves each segment
// once into a placement over the address's two 64-bit halves, and each
// mined element into either a pre-placed constant (exact values) or a
// (base, span) pair (ranges). A candidate then costs one OR per exact
// segment, and one bounded draw plus one placement per range segment.
//
// The draws are Value.Sample's, from the same rng calls in the same
// order, so a compiled decode is byte-identical to the readable one for
// any rng state (TestCompiledDecoderMatchesReference pins it). A
// CompiledDecoder is immutable and safe for concurrent use.
type CompiledDecoder struct {
	segs []decodeSegment
}

// decodeSegment is one segment's placement and compiled elements.
type decodeSegment struct {
	placement
	elems []decodeElem
}

// decodeElem is one compiled mined element.
type decodeElem struct {
	// hi and lo are an exact value already placed in the address halves.
	hi, lo uint64
	// base and span are a range's Lo and Hi-Lo; span is 0 for exact values.
	base, span uint64
	// limit is Value.Sample's rejection bound for a range whose size
	// span+1 is not a power of two. It is 0 when the size is a power of
	// two, where the modulo is a mask and no draw is ever rejected.
	limit uint64
}

// compileDecoder flattens the per-segment models into a decoder.
func compileDecoder(models []*SegmentModel) *CompiledDecoder {
	d := &CompiledDecoder{segs: make([]decodeSegment, len(models))}
	for i, m := range models {
		s := decodeSegment{placement: newPlacement(m.Seg)}
		s.elems = make([]decodeElem, len(m.Values))
		for k, v := range m.Values {
			el := &s.elems[k]
			if v.IsExact() {
				el.hi, el.lo = s.place(v.Lo)
				continue
			}
			el.base, el.span = v.Lo, v.Hi-v.Lo
			if el.span&(el.span+1) != 0 {
				el.limit = ^uint64(0) - el.span
			}
		}
		d.segs[i] = s
	}
	return d
}

// Decode materializes the address of a categorical vector, drawing a
// value inside every selected range. vec must hold one valid element
// index per segment, as a sampler over the model's network draws them; an
// out-of-range index panics. Decode does not allocate.
func (d *CompiledDecoder) Decode(vec []int, rng *rand.Rand) ip6.Addr {
	var hi, lo uint64
	for i := range d.segs {
		s := &d.segs[i]
		el := &s.elems[vec[i]]
		if el.span == 0 {
			hi |= el.hi
			lo |= el.lo
			continue
		}
		h, l := s.place(el.base + el.draw(rng))
		hi |= h
		lo |= l
	}
	var a ip6.Addr
	binary.BigEndian.PutUint64(a[:8], hi)
	binary.BigEndian.PutUint64(a[8:], lo)
	return a
}

// draw returns a uniform offset into the range, consuming the rng exactly
// as Value.Sample does: one Uint64 when the range size is a power of two
// (the full 64-bit range included), otherwise Uint64s until one falls
// below the top partial block.
func (el *decodeElem) draw(rng *rand.Rand) uint64 {
	if el.limit == 0 {
		return rng.Uint64() & el.span
	}
	n := el.span + 1
	for {
		x := rng.Uint64()
		r := x % n
		if x-r <= el.limit {
			return r
		}
	}
}
