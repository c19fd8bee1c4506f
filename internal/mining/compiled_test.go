package mining

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"entropyip/internal/ip6"
	"entropyip/internal/segment"
)

// mkModel builds a SegmentModel with the given elements over a segment of
// `width` nybbles starting at nybble 0, wiring codes/counts the way Mine
// would.
func mkModel(width int, values ...Value) *SegmentModel {
	seg := segment.Segment{Label: "T", Start: 0, Width: width}
	m := &SegmentModel{Seg: seg, Total: 1000}
	for i, v := range values {
		v.Code = fmt.Sprintf("T%d", i+1)
		v.Count = 1
		m.Values = append(m.Values, v)
	}
	return m
}

// compiledCases are adversarial value-set shapes: overlapping ranges,
// exact values inside ranges, duplicate and touching bounds, gaps whose
// nearest element switches mid-gap, ties broken by element order, the
// full domain, and a degenerate empty set.
func compiledCases(width int) []*SegmentModel {
	max := segment.Segment{Width: width}.MaxValue()
	return []*SegmentModel{
		mkModel(width), // no values: always (-1, false)
		mkModel(width, Value{Lo: 5, Hi: 5}),
		mkModel(width, Value{Lo: 0, Hi: max}),
		mkModel(width, Value{Lo: 10, Hi: 20}, Value{Lo: 15, Hi: 15}), // exact inside range: exact wins at 15
		mkModel(width, Value{Lo: 15, Hi: 15}, Value{Lo: 10, Hi: 20}), // exact listed first: exact wins at 15
		mkModel(width, Value{Lo: 10, Hi: 20}, Value{Lo: 18, Hi: 30}), // overlap: earlier range wins
		mkModel(width, Value{Lo: 3, Hi: 3}, Value{Lo: 9, Hi: 9}),     // gap 4..8: tie at 6 keeps index 0, switch at 7
		mkModel(width, Value{Lo: 3, Hi: 3}, Value{Lo: 8, Hi: 8}),     // gap 4..7: no tie, switch at 6
		mkModel(width, Value{Lo: 9, Hi: 9}, Value{Lo: 3, Hi: 3}),     // gap 4..8: tie at 6 goes right to index 0, switch at 6
		mkModel(width, Value{Lo: 8, Hi: 8}, Value{Lo: 3, Hi: 3}),     // gap 4..7: no tie, switch at 6
		mkModel(width, Value{Lo: 0, Hi: 0}, Value{Lo: max, Hi: max}), // extreme gap
		mkModel(width, Value{Lo: 4, Hi: 7}, Value{Lo: 8, Hi: 11}),    // touching ranges, no gap
		mkModel(width, Value{Lo: 2, Hi: 2}, Value{Lo: 2, Hi: 2}),     // duplicate exacts: first wins
		mkModel(width, Value{Lo: 6, Hi: 9}, Value{Lo: 6, Hi: 9}),     // duplicate ranges
		mkModel(width, Value{Lo: 1, Hi: 2}, Value{Lo: 5, Hi: 5}, Value{Lo: 9, Hi: max}),
		mkModel(width, Value{Lo: max - 1, Hi: max}),
		mkModel(width, Value{Lo: 0, Hi: 1}, Value{Lo: max - 1, Hi: max}, Value{Lo: max / 2, Hi: max/2 + 2}),
	}
}

// randomCases are n seeded random value sets of 1–8 exact values or
// ranges inside 0..255, in random index order, so overlaps, touching
// bounds and gaps of both parities with either neighbour first all occur.
func randomCases(width, n int) []*SegmentModel {
	rng := rand.New(rand.NewSource(11))
	out := make([]*SegmentModel, n)
	for i := range out {
		values := make([]Value, 1+rng.Intn(8))
		for k := range values {
			lo := uint64(rng.Intn(256))
			hi := lo
			if rng.Intn(2) == 0 {
				hi += uint64(rng.Intn(min(32, 256-int(lo))))
			}
			values[k] = Value{Lo: lo, Hi: hi}
		}
		out[i] = mkModel(width, values...)
	}
	return out
}

// refEncode is the uncompiled answer: Encode, else EncodeNearest.
func refEncode(m *SegmentModel, v uint64) (int, bool) {
	if idx, ok := m.Encode(v); ok {
		return idx, true
	}
	idx, ok := m.EncodeNearest(v)
	if !ok {
		return -1, false
	}
	return idx, false
}

// refEncodeAddr is the address-level reference: refEncode on every
// segment's value. exact is false when any segment clamps or has no
// mined values (its slot is then -1).
func refEncodeAddr(models []*SegmentModel, a ip6.Addr) (vec []int, exact bool) {
	vec = make([]int, len(models))
	exact = true
	for i, m := range models {
		idx, covered := refEncode(m, m.Seg.Value(a))
		vec[i] = idx
		exact = exact && covered
	}
	return vec, exact
}

// checkSegment compares the compiled encoder with the reference scan on
// every probed value. The model's value set is compiled at three
// placements — the top of the address, straddling bit 64, and the bottom
// — and each value is written into a random address, so the extraction
// from the 64-bit halves and its masking are checked along with the
// lookup tables.
func checkSegment(t *testing.T, m *SegmentModel, probe func(check func(v uint64))) {
	t.Helper()
	w := m.Seg.Width
	rng := rand.New(rand.NewSource(int64(w)))
	vec := make([]int, 1)
	for _, start := range []int{0, 16 - (w+1)/2, ip6.NybbleCount - w} {
		placed := *m
		placed.Seg.Start = start
		c := NewEncoder([]*SegmentModel{&placed}).Compiled()
		probe(func(v uint64) {
			wantIdx, wantCov := refEncode(m, v)
			var a ip6.Addr
			rng.Read(a[:])
			gotCov := c.EncodeInto(vec, a.SetField(start, w, v))
			if vec[0] != wantIdx || gotCov != wantCov {
				t.Fatalf("model %+v at nybble %d: value %d: compiled (%d, %v), reference (%d, %v)",
					m.Values, start, v, vec[0], gotCov, wantIdx, wantCov)
			}
		})
	}
}

// TestCompiledEncoderMatchesReferenceExhaustive checks the whole domain
// of narrow segments through BOTH compiled paths: the direct table
// (width <= directMaxNybbles) and the interval table, which is forced by
// checking the same value sets on a wide segment at the same small
// values. Past 255 a wide segment holds no element bound, so those
// values plus its maximum cover every elementary interval.
func TestCompiledEncoderMatchesReferenceExhaustive(t *testing.T) {
	for _, m := range append(compiledCases(2), randomCases(2, 200)...) {
		checkSegment(t, m, func(check func(uint64)) { // 256-value domain: direct path
			for v := uint64(0); v <= m.Seg.MaxValue(); v++ {
				check(v)
			}
		})
		wide := *m
		wide.Seg.Width = 4
		checkSegment(t, &wide, func(check func(uint64)) { // interval path
			for v := uint64(0); v <= 256; v++ {
				check(v)
			}
			check(wide.Seg.MaxValue())
		})
	}
}

// TestSegmentEncodeRule pins the reference rule itself with literal
// answers: an exact element beats a range that contains it, the earlier
// of two overlapping ranges wins, and an uncovered value takes the
// nearest element, the lower index at a tie. The compiled encoder is
// held to this rule by the MatchesReference tests.
func TestSegmentEncodeRule(t *testing.T) {
	type want struct {
		v       uint64
		idx     int
		covered bool
	}
	cases := []struct {
		name   string
		values []Value
		want   []want
	}{
		{"exact inside range", []Value{{Lo: 10, Hi: 20}, {Lo: 15, Hi: 15}},
			[]want{{14, 0, true}, {15, 1, true}, {16, 0, true}}},
		{"exact listed first", []Value{{Lo: 15, Hi: 15}, {Lo: 10, Hi: 20}},
			[]want{{14, 1, true}, {15, 0, true}, {16, 1, true}}},
		{"overlapping ranges", []Value{{Lo: 10, Hi: 20}, {Lo: 18, Hi: 30}},
			[]want{{17, 0, true}, {18, 0, true}, {20, 0, true}, {21, 1, true}}},
		{"tie kept left", []Value{{Lo: 3, Hi: 3}, {Lo: 9, Hi: 9}},
			[]want{{5, 0, false}, {6, 0, false}, {7, 1, false}}},
		{"tie goes right", []Value{{Lo: 9, Hi: 9}, {Lo: 3, Hi: 3}},
			[]want{{5, 1, false}, {6, 0, false}, {7, 0, false}}},
		{"no tie", []Value{{Lo: 3, Hi: 3}, {Lo: 8, Hi: 8}},
			[]want{{5, 0, false}, {6, 1, false}}},
		{"no tie, reversed", []Value{{Lo: 8, Hi: 8}, {Lo: 3, Hi: 3}},
			[]want{{5, 1, false}, {6, 0, false}}},
		{"one-sided gaps", []Value{{Lo: 100, Hi: 110}},
			[]want{{0, 0, false}, {99, 0, false}, {111, 0, false}, {255, 0, false}}},
	}
	for _, tc := range cases {
		m := mkModel(2, tc.values...)
		for _, w := range tc.want {
			if idx, covered := refEncode(m, w.v); idx != w.idx || covered != w.covered {
				t.Errorf("%s: at %d = (%d, %v), want (%d, %v)", tc.name, w.v, idx, covered, w.idx, w.covered)
			}
		}
	}
}

// TestCompiledEncoderMatchesReferenceIntervals drives the binary-search
// path (width > directMaxNybbles) over every element bound ±2, gap
// midpoints and random probes.
func TestCompiledEncoderMatchesReferenceIntervals(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, width := range []int{4, 8, 16} {
		max := segment.Segment{Width: width}.MaxValue()
		for _, m := range compiledCases(width) {
			checkSegment(t, m, func(check func(uint64)) {
				probe := func(v uint64) {
					check(v)
					for d := uint64(1); d <= 2; d++ {
						if v >= d {
							check(v - d)
						}
						if max-v >= d {
							check(v + d)
						}
					}
				}
				probe(0)
				probe(max)
				probe(max / 2)
				for _, v := range m.Values {
					probe(v.Lo)
					probe(v.Hi)
				}
				// Gap midpoints between consecutive elements, where the
				// nearest-element switch points live.
				for _, a := range m.Values {
					for _, b := range m.Values {
						if a.Hi < b.Lo {
							mid := a.Hi + (b.Lo-a.Hi)/2
							probe(mid)
						}
					}
				}
				for i := 0; i < 200; i++ {
					check(rng.Uint64() % (max/2*2 + 1))
				}
			})
		}
	}
}

// TestCompiledEncoderMatchesEncoderOnMinedModels runs real mined models
// (the shapes Mine actually produces) through the compiled encoder and
// the per-segment reference over whole addresses, including
// EncodeDistinct's tally.
func TestCompiledEncoderMatchesEncoderOnMinedModels(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	addrs := make([]ip6.Addr, 4000)
	for i := range addrs {
		var a ip6.Addr
		rng.Read(a[:])
		// Skew: half the addresses share structure so mining finds values.
		if i%2 == 0 {
			a[0], a[1], a[2], a[3] = 0x20, 0x01, 0x0d, 0xb8
			a[4] = byte(rng.Intn(4))
		}
		addrs[i] = a
	}
	sg := &segment.Segmentation{Segments: []segment.Segment{
		{Label: "A", Start: 0, Width: 8},
		{Label: "B", Start: 8, Width: 2},
		{Label: "C", Start: 10, Width: 6},
		{Label: "D", Start: 16, Width: 16},
	}}
	models := MineAllWorkers(addrs, sg, Config{}, 0)
	enc := NewEncoder(models)
	c := enc.Compiled()

	vec := make([]int, len(models))
	for _, a := range addrs[:1000] {
		want, wantExact := refEncodeAddr(models, a)
		gotExact := c.EncodeInto(vec, a)
		if gotExact != wantExact {
			t.Fatalf("EncodeInto(%v) exact = %v, reference %v", a, gotExact, wantExact)
		}
		for i := range vec {
			if vec[i] != want[i] {
				t.Fatalf("EncodeInto(%v)[%d] = %d, reference %d", a, i, vec[i], want[i])
			}
		}
	}

	// EncodeDistinct must tally exactly the vectors the reference scan
	// produces (regression pin for byte-identical models: identical
	// encodings -> identical CPT counts -> identical serialized models).
	wantRows, wantCounts := referenceDistinct(enc, addrs)
	gotRows, gotCounts := enc.EncodeDistinct(addrs, 0)
	if !reflect.DeepEqual(gotRows, wantRows) || !reflect.DeepEqual(gotCounts, wantCounts) {
		t.Fatal("EncodeDistinct differs from the reference scan's tally")
	}
}

// TestEncodeIntoZeroAlloc pins the serving-plane contract: encoding into
// a caller buffer does not allocate.
func TestEncodeIntoZeroAlloc(t *testing.T) {
	m := compiledCases(8)[12]
	enc := NewEncoder([]*SegmentModel{m})
	c := enc.Compiled()
	vec := make([]int, 1)
	rng := rand.New(rand.NewSource(1))
	addrs := make([]ip6.Addr, 64)
	for i := range addrs {
		rng.Read(addrs[i][:])
	}
	i := 0
	if n := testing.AllocsPerRun(200, func() {
		c.EncodeInto(vec, addrs[i%len(addrs)])
		i++
	}); n != 0 {
		t.Fatalf("EncodeInto allocates %.1f times per address, want 0", n)
	}
}
