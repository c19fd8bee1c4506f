package mining

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"entropyip/internal/dbscan"
	"entropyip/internal/dbscan/dbscantest"
	"entropyip/internal/entropy"
	"entropyip/internal/ip6"
	"entropyip/internal/segment"
	"entropyip/internal/stats"
	"entropyip/internal/synth"
)

func seg(label string, start, width int) segment.Segment {
	return segment.Segment{Label: label, Start: start, Width: width}
}

func TestMineSingleConstantValue(t *testing.T) {
	s := seg("A", 0, 8)
	values := make([]uint64, 1000)
	for i := range values {
		values[i] = 0x20010db8
	}
	m := Mine(s, values, Config{})
	if m.Arity() != 1 {
		t.Fatalf("Arity = %d, want 1; values = %+v", m.Arity(), m.Values)
	}
	v := m.Values[0]
	if !v.IsExact() || v.Lo != 0x20010db8 || v.Count != 1000 || v.Freq != 1 {
		t.Errorf("value = %+v", v)
	}
	if v.Code != "A1" {
		t.Errorf("Code = %q", v.Code)
	}
	if m.CoveredFraction() != 1 {
		t.Errorf("CoveredFraction = %v", m.CoveredFraction())
	}
}

func TestMineTwoPrefixesLikePaperSegmentA(t *testing.T) {
	// The paper's S1 segment A: two /32 values at 63.5% / 36.5%.
	s := seg("A", 0, 8)
	var values []uint64
	for i := 0; i < 635; i++ {
		values = append(values, 0x20010db8)
	}
	for i := 0; i < 365; i++ {
		values = append(values, 0x30010db8)
	}
	m := Mine(s, values, Config{})
	if m.Arity() != 2 {
		t.Fatalf("Arity = %d, want 2; %+v", m.Arity(), m.Values)
	}
	// Mined by descending count: A1 is the 63.5% value.
	if m.Values[0].Lo != 0x20010db8 || m.Values[1].Lo != 0x30010db8 {
		t.Errorf("values = %+v", m.Values)
	}
	if m.Values[0].Code != "A1" || m.Values[1].Code != "A2" {
		t.Error("codes wrong")
	}
	if m.Values[0].Freq < 0.6 || m.Values[0].Freq > 0.67 {
		t.Errorf("Freq = %v", m.Values[0].Freq)
	}
}

func TestMineOutliersPlusUniformRange(t *testing.T) {
	// A 2-nybble segment like the paper's segment C (Fig. 4): a few very
	// popular values plus a uniform-ish range 0x02..0x5b.
	s := seg("C", 10, 2)
	rng := rand.New(rand.NewSource(1))
	var values []uint64
	for i := 0; i < 6700; i++ {
		values = append(values, 0x00)
	}
	for i := 0; i < 1100; i++ {
		values = append(values, 0x01)
	}
	for i := 0; i < 2000; i++ {
		values = append(values, 0x02+uint64(rng.Intn(0x5a)))
	}
	m := Mine(s, values, Config{})
	if m.Arity() < 2 {
		t.Fatalf("Arity = %d, want >= 2: %+v", m.Arity(), m.Values)
	}
	// The two popular values must be mined as exact outliers, in order.
	if !m.Values[0].IsExact() || m.Values[0].Lo != 0 {
		t.Errorf("first value = %+v, want exact 00", m.Values[0])
	}
	if idx, ok := m.Encode(0x01); !ok || !m.Values[idx].IsExact() {
		t.Errorf("0x01 should be an exact mined value")
	}
	// The uniform range must be covered by some range element.
	idx, ok := m.Encode(0x30)
	if !ok {
		t.Fatalf("0x30 not covered: %+v", m.Values)
	}
	if m.Values[idx].IsExact() {
		t.Errorf("0x30 should fall in a range, got %+v", m.Values[idx])
	}
	// Everything is covered.
	if m.CoveredFraction() < 0.999 {
		t.Errorf("CoveredFraction = %v", m.CoveredFraction())
	}
}

func TestMineSmallSetTakenVerbatim(t *testing.T) {
	s := seg("H", 29, 1)
	values := []uint64{0, 8, 1, 0, 8, 0}
	m := Mine(s, values, Config{})
	// At most 10 distinct remaining -> taken verbatim (possibly after the
	// outlier step); all three distinct values must be exact.
	for _, want := range []uint64{0, 8, 1} {
		idx, ok := m.Encode(want)
		if !ok || !m.Values[idx].IsExact() {
			t.Errorf("value %d should be mined exactly: %+v", want, m.Values)
		}
	}
}

func TestMineClosingRange(t *testing.T) {
	// Many distinct values, uniformly spread, too many for the verbatim
	// fallback: a closing range (or mined ranges) must cover everything.
	s := seg("J", 16, 11)
	rng := rand.New(rand.NewSource(2))
	values := make([]uint64, 5000)
	for i := range values {
		values[i] = rng.Uint64() % (1 << 44)
	}
	m := Mine(s, values, Config{})
	if m.Arity() == 0 {
		t.Fatal("no values mined")
	}
	if m.CoveredFraction() < 0.99 {
		t.Errorf("CoveredFraction = %v", m.CoveredFraction())
	}
	for _, v := range values[:100] {
		if _, ok := m.Encode(v); !ok {
			t.Errorf("training value %x not covered", v)
		}
	}
}

func TestMineEmptyAndStopFraction(t *testing.T) {
	m := Mine(seg("A", 0, 8), nil, Config{})
	if m.Arity() != 0 || m.CoveredFraction() != 0 {
		t.Error("empty mining should produce no values")
	}
	// With a very high stop fraction, mining stops after the outliers.
	values := make([]uint64, 0, 1000)
	for i := 0; i < 990; i++ {
		values = append(values, 7)
	}
	for i := 0; i < 10; i++ {
		values = append(values, uint64(100+i))
	}
	m = Mine(seg("B", 8, 2), values, Config{StopFraction: 0.05})
	if m.Arity() != 1 {
		t.Errorf("expected only the outlier to be mined, got %+v", m.Values)
	}
	if m.CoveredFraction() > 0.995 {
		t.Error("the tail should remain uncovered")
	}
}

func TestMineNominateLimit(t *testing.T) {
	// 30 equally popular values: the verbatim/closing fallback applies, but
	// with a small NominateLimit and SmallSetLimit the model stays compact.
	var values []uint64
	for v := 0; v < 30; v++ {
		for i := 0; i < 10; i++ {
			values = append(values, uint64(v)*8)
		}
	}
	m := Mine(seg("D", 12, 2), values, Config{NominateLimit: 5, SmallSetLimit: 5})
	if m.Arity() > 12 {
		t.Errorf("Arity = %d, expected a compact model", m.Arity())
	}
	if m.CoveredFraction() < 0.999 {
		t.Errorf("CoveredFraction = %v", m.CoveredFraction())
	}
}

func TestValueSampleWithinBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	v := Value{Lo: 100, Hi: 200}
	for i := 0; i < 1000; i++ {
		x := v.Sample(rng)
		if x < 100 || x > 200 {
			t.Fatalf("sample %d out of bounds", x)
		}
	}
	exact := Value{Lo: 42, Hi: 42}
	if exact.Sample(rng) != 42 {
		t.Error("exact sample should return the value")
	}
	full := Value{Lo: 0, Hi: ^uint64(0)}
	_ = full.Sample(rng) // must not panic
	if full.Width() != ^uint64(0) {
		t.Errorf("Width of full range = %d", full.Width())
	}
}

func TestValueSamplePropertyBounds(t *testing.T) {
	f := func(a, b uint64, seed int64) bool {
		lo, hi := a, b
		if lo > hi {
			lo, hi = hi, lo
		}
		v := Value{Lo: lo, Hi: hi}
		rng := rand.New(rand.NewSource(seed))
		x := v.Sample(rng)
		return x >= lo && x <= hi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestEncodeNearest(t *testing.T) {
	m := &SegmentModel{
		Seg: seg("B", 8, 2),
		Values: []Value{
			{Code: "B1", Lo: 0x10, Hi: 0x10},
			{Code: "B2", Lo: 0x20, Hi: 0x30},
		},
		Total: 10,
	}
	if idx, ok := m.Encode(0x25); !ok || idx != 1 {
		t.Error("0x25 should encode to B2")
	}
	if _, ok := m.Encode(0x50); ok {
		t.Error("0x50 is not covered")
	}
	if idx, ok := m.EncodeNearest(0x32); !ok || idx != 1 {
		t.Error("0x32 should clamp to B2")
	}
	if idx, ok := m.EncodeNearest(0x11); !ok || idx != 0 {
		t.Error("0x11 should clamp to B1")
	}
	empty := &SegmentModel{Seg: seg("Z", 0, 1)}
	if _, ok := empty.EncodeNearest(1); ok {
		t.Error("empty model cannot encode")
	}
}

func TestFindAndFormatValue(t *testing.T) {
	m := &SegmentModel{
		Seg: seg("G", 16, 13),
		Values: []Value{
			{Code: "G1", Lo: 0, Hi: 0},
			{Code: "G2", Lo: 0x0000000000001, Hi: 0x0000000000af0},
		},
	}
	if v, ok := m.Find("G2"); !ok || v.Lo != 1 {
		t.Error("Find(G2) failed")
	}
	if _, ok := m.Find("G9"); ok {
		t.Error("Find(G9) should fail")
	}
	if got := m.FormatValue(m.Values[0]); got != "0000000000000" {
		t.Errorf("FormatValue exact = %q", got)
	}
	if got := m.FormatValue(m.Values[1]); got != "0000000000001-0000000000af0" {
		t.Errorf("FormatValue range = %q", got)
	}
}

func TestStepString(t *testing.T) {
	names := map[Step]string{StepOutlier: "outlier", StepDense: "dense-range", StepUniform: "uniform-range", StepClosing: "closing", Step(99): "unknown"}
	for s, want := range names {
		if s.String() != want {
			t.Errorf("%d.String() = %q", s, s.String())
		}
	}
}

// buildTestSet builds a structured address population: two /32 prefixes, a
// subnet nybble, and either a low-byte or random IID.
func buildTestSet(n int, seed int64) []ip6.Addr {
	rng := rand.New(rand.NewSource(seed))
	prefixes := []ip6.Addr{ip6.MustParseAddr("2001:db8::"), ip6.MustParseAddr("3001:db8::")}
	out := make([]ip6.Addr, n)
	for i := range out {
		a := prefixes[0]
		if rng.Float64() < 0.35 {
			a = prefixes[1]
		}
		a = a.SetField(8, 2, uint64(rng.Intn(4)))   // variant nybbles
		a = a.SetField(10, 2, uint64(rng.Intn(64))) // subnet
		if rng.Float64() < 0.5 {
			a = a.SetField(28, 4, uint64(rng.Intn(256))+1) // low IID
		} else {
			a = a.SetField(16, 16, rng.Uint64()) // random IID
		}
		out[i] = a
	}
	return out
}

func TestMineAllAndEncoderRoundTrip(t *testing.T) {
	addrs := buildTestSet(3000, 5)
	prof := entropy.NewProfile(addrs)
	sg := segment.Segments(prof, segment.Config{})
	models := MineAllWorkers(addrs, sg, Config{}, 0)
	if len(models) != len(sg.Segments) {
		t.Fatalf("models = %d, segments = %d", len(models), len(sg.Segments))
	}
	enc := NewEncoder(models)
	arities := enc.Arities()
	for i, m := range models {
		if m.Arity() == 0 {
			t.Errorf("segment %s mined no values", m.Seg.Label)
		}
		if arities[i] != m.Arity() {
			t.Error("Arities mismatch")
		}
	}
	// Every training address encodes without clamping and the coded vector
	// has one entry per segment.
	clamped := 0
	for _, a := range addrs[:500] {
		vec, exact := refEncodeAddr(enc.Models, a)
		if len(vec) != len(models) {
			t.Fatalf("vector length %d", len(vec))
		}
		if !exact {
			clamped++
		}
		codes := enc.Codes(vec)
		for _, c := range codes {
			if c == "?" {
				t.Fatalf("unexpected code %v", codes)
			}
		}
	}
	if clamped > 0 {
		t.Errorf("%d training addresses required clamping", clamped)
	}
	// Decode produces addresses whose segment values fall inside the
	// selected elements (ranges sample within themselves). The re-encoded
	// vector may legitimately pick an earlier overlapping element, so the
	// invariant checked is containment, not equality.
	rng := rand.New(rand.NewSource(7))
	for _, a := range addrs[:100] {
		vec, _ := refEncodeAddr(enc.Models, a)
		gen, err := enc.Decode(vec, rng)
		if err != nil {
			t.Fatal(err)
		}
		for i, m := range enc.Models {
			v := m.Values[vec[i]]
			if !v.Contains(m.Seg.Value(gen)) {
				t.Fatalf("segment %s: generated value %x outside selected element %+v",
					m.Seg.Label, m.Seg.Value(gen), v)
			}
		}
	}
}

func TestEncoderDecodeErrors(t *testing.T) {
	addrs := buildTestSet(500, 6)
	prof := entropy.NewProfile(addrs)
	sg := segment.Segments(prof, segment.Config{})
	enc := NewEncoder(MineAllWorkers(addrs, sg, Config{}, 0))
	rng := rand.New(rand.NewSource(1))
	if _, err := enc.Decode([]int{0}, rng); err == nil {
		t.Error("expected length error")
	}
	vec := make([]int, len(enc.Models))
	vec[0] = 9999
	if _, err := enc.Decode(vec, rng); err == nil {
		t.Error("expected range error")
	}
	if got := enc.Codes([]int{-1}); got[0] != "?" {
		t.Error("out-of-range code should be ?")
	}
}

func TestMineTrainingCoverageProperty(t *testing.T) {
	// Property: for arbitrary small training multisets, every training
	// value is covered by the mined model (Encode succeeds) as long as the
	// default stop fraction (0.1%) rounds to zero leftovers.
	f := func(raw []uint16, seed int64) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 300 {
			raw = raw[:300]
		}
		values := make([]uint64, len(raw))
		for i, v := range raw {
			values[i] = uint64(v)
		}
		m := Mine(seg("X", 8, 4), values, Config{})
		for _, v := range values {
			if _, ok := m.Encode(v); !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestStatsFreqIntegration(t *testing.T) {
	// Regression guard: mining must not mutate the caller's value slice.
	values := []uint64{5, 5, 5, 9, 9, 1}
	orig := append([]uint64(nil), values...)
	_ = Mine(seg("A", 0, 8), values, Config{})
	for i := range values {
		if values[i] != orig[i] {
			t.Fatal("Mine mutated its input")
		}
	}
	// And the pool helper used heavily here keeps totals consistent.
	pool := stats.FreqOf(values)
	pool.RemoveRange(0, 100)
	if pool.Total() != 0 {
		t.Error("pool not emptied")
	}
}

// TestUniformStepMatchesReferenceS1 mines segments E and F of the 100k S1
// population, the wide segments whose histograms step (c) coarsens, up to
// step (c), and checks that dbscan.Cluster labels step (c)'s points as the
// all-pairs reference does.
func TestUniformStepMatchesReferenceS1(t *testing.T) {
	addrs, err := synth.Generate("S1", 100_000, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{}
	for _, s := range segment.Segments(entropy.NewProfile(addrs), segment.Config{}).Segments {
		if s.Label != "E" && s.Label != "F" {
			continue
		}
		values := make([]uint64, len(addrs))
		for i, a := range addrs {
			values[i] = s.Value(a)
		}
		// Steps (a) and (b) as Mine runs them on these segments, which
		// stay above the small-set limit and the stop fraction.
		pool := stats.FreqOf(values)
		mineOutliers(pool, cfg)
		mineDenseRanges(pool, s, cfg)
		_, points := uniformPoints(pool.Entries(), s)
		if len(points) < uniformDBSCANMaxPoints/2 {
			t.Fatalf("segment %s: %d step-(c) points, want a coarsened histogram", s.Label, len(points))
		}
		got := dbscan.Cluster(points, uniformEps, uniformMinPts)
		labels, clusters := dbscantest.Reference(points, uniformEps, uniformMinPts)
		if got.NumClusters != clusters || !slices.Equal(got.Labels, labels) {
			t.Fatalf("segment %s (%d points): %d clusters, reference %d, labels differ", s.Label, len(points), got.NumClusters, clusters)
		}
	}
}

func BenchmarkMineAll1K(b *testing.B) {
	addrs := buildTestSet(1000, 9)
	prof := entropy.NewProfile(addrs)
	sg := segment.Segments(prof, segment.Config{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MineAllWorkers(addrs, sg, Config{}, 0)
	}
}

// BenchmarkMineAll100k mines every segment of the 100k-address synthetic
// S1 population (the train workload's input) on one worker, so the cost is
// the mining steps themselves rather than their spread over cores.
func BenchmarkMineAll100k(b *testing.B) {
	addrs, err := synth.Generate("S1", 100_000, 1)
	if err != nil {
		b.Fatal(err)
	}
	sg := segment.Segments(entropy.NewProfile(addrs), segment.Config{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MineAllWorkers(addrs, sg, Config{}, 1)
	}
}
