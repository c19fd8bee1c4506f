package mining

import (
	"math/rand"
	"testing"

	"entropyip/internal/ip6"
	"entropyip/internal/segment"
)

// decodeLayouts place segments in the high half of the address, in the
// low half, across bit 64, at the full 16-nybble width in either half,
// and as single nybbles at both ends.
var decodeLayouts = [][]segment.Segment{
	{seg("A", 0, 8), seg("B", 8, 2), seg("C", 10, 6), seg("D", 16, 16)},
	{seg("A", 0, 16), seg("B", 16, 16)},
	{seg("A", 0, 1), seg("B", 1, 11), seg("C", 12, 8), seg("D", 20, 11), seg("E", 31, 1)},
}

// decodeValues covers every draw path of the compiled decoder: exact
// values (the segment maximum included), ranges whose size is a power of
// two (a masked draw, the full domain included), ranges whose size is
// not (modulo with rejection; the one of size 2^63+1 rejects about half
// of all draws at width 16), and a corrupt range with Lo > Hi. Values
// wider than a narrow segment are corrupt too; both decoders must still
// agree on all of them.
func decodeValues(width int) []Value {
	max := segment.Segment{Width: width}.MaxValue()
	return []Value{
		{Lo: 5, Hi: 5},
		{Lo: max, Hi: max},
		{Lo: 0, Hi: max},
		{Lo: 16, Hi: 31},
		{Lo: 10, Hi: 20},
		{Lo: max - 1, Hi: max},
		{Lo: 0, Hi: 1 << 63},
		{Lo: 9, Hi: 3},
	}
}

func decodeEncoder(layout []segment.Segment) *Encoder {
	models := make([]*SegmentModel, len(layout))
	for i, s := range layout {
		models[i] = &SegmentModel{Seg: s, Values: decodeValues(s.Width)}
	}
	return NewEncoder(models)
}

// TestCompiledDecoderMatchesReference pins the compiled decoder to the
// readable one: the same address from the same vector and rng state, and
// the same rng consumption, checked by comparing the next draw of both
// streams after every decode.
func TestCompiledDecoderMatchesReference(t *testing.T) {
	pick := rand.New(rand.NewSource(1))
	for li, layout := range decodeLayouts {
		enc := decodeEncoder(layout)
		dec := enc.Decoder()
		r1 := rand.New(rand.NewSource(int64(li)))
		r2 := rand.New(rand.NewSource(int64(li)))
		vec := make([]int, len(layout))
		for n := 0; n < 5000; n++ {
			for i, m := range enc.Models {
				vec[i] = pick.Intn(m.Arity())
			}
			want, err := enc.DecodeReference(vec, r1)
			if err != nil {
				t.Fatal(err)
			}
			if got := dec.Decode(vec, r2); got != want {
				t.Fatalf("layout %d vector %v: compiled %s, reference %s", li, vec, got.Hex(), want.Hex())
			}
			if r1.Uint64() != r2.Uint64() {
				t.Fatalf("layout %d vector %v: rng consumption differs", li, vec)
			}
		}
	}
}

// TestCompiledDecodeZeroAlloc pins the generation hot-path contract:
// decoding a vector does not allocate.
func TestCompiledDecodeZeroAlloc(t *testing.T) {
	enc := decodeEncoder(decodeLayouts[0])
	dec := enc.Decoder()
	vec := make([]int, len(enc.Models))
	rng := rand.New(rand.NewSource(1))
	var a ip6.Addr
	if n := testing.AllocsPerRun(200, func() {
		vec[3] = (vec[3] + 1) % enc.Models[3].Arity()
		a = dec.Decode(vec, rng)
	}); n != 0 {
		t.Fatalf("Decode allocates %.1f times per vector, want 0", n)
	}
	_ = a
}
