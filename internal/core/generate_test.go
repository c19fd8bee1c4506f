package core

import (
	"bytes"
	"context"
	"math"
	"sync/atomic"
	"testing"

	"entropyip/internal/ip6"
)

func TestGenerateBasics(t *testing.T) {
	m, addrs := buildTestModel(t, 4000, 10, Options{})
	got, err := m.Generate(GenerateOptions{Count: 500, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 500 {
		t.Fatalf("generated %d, want 500", len(got))
	}
	// Unique.
	set := ip6.NewSet(len(got))
	for _, a := range got {
		if !set.Add(a) {
			t.Fatalf("duplicate candidate %v", a)
		}
	}
	// All candidates stay within the training /32 (segment A is constant).
	p32 := ip6.PrefixFrom(ip6.MustParseAddr("2001:db8::"), 32)
	for _, a := range got {
		if !p32.Contains(a) {
			t.Errorf("candidate %v escapes the /32", a)
		}
	}
	// Deterministic for a fixed seed.
	again, err := m.Generate(GenerateOptions{Count: 500, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != again[i] {
			t.Fatal("generation is not deterministic for a fixed seed")
		}
	}
	// Different seed differs (overwhelmingly likely).
	other, _ := m.Generate(GenerateOptions{Count: 500, Seed: 43})
	same := 0
	for i := range got {
		if got[i] == other[i] {
			same++
		}
	}
	if same == len(got) {
		t.Error("different seeds should produce different candidates")
	}
	_ = addrs
}

func TestGenerateErrors(t *testing.T) {
	m, _ := buildTestModel(t, 1000, 11, Options{})
	if _, err := m.Generate(GenerateOptions{Count: 0}); err == nil {
		t.Error("expected error for zero count")
	}
	if _, err := m.Generate(GenerateOptions{Count: 10, Evidence: Evidence{"ZZ": "Z1"}}); err == nil {
		t.Error("expected error for unknown evidence")
	}
	if _, err := m.GeneratePrefixes(GenerateOptions{Count: 0}); err == nil {
		t.Error("expected error for zero count")
	}
	if _, err := m.GeneratePrefixes(GenerateOptions{Count: 10, Evidence: Evidence{"ZZ": "Z1"}}); err == nil {
		t.Error("expected error for unknown evidence")
	}
}

func TestGenerateExcludesTraining(t *testing.T) {
	m, addrs := buildTestModel(t, 2000, 12, Options{})
	exclude := ip6.NewSet(len(addrs))
	exclude.AddAll(addrs)
	got, err := m.Generate(GenerateOptions{Count: 300, Seed: 7, Exclude: exclude})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range got {
		if exclude.Contains(a) {
			t.Fatalf("excluded address %v was generated", a)
		}
	}
}

func TestGenerateWithEvidence(t *testing.T) {
	m, _ := buildTestModel(t, 4000, 13, Options{})
	last := m.Segments[len(m.Segments)-1]
	var code string
	var want uint64
	for _, v := range last.Values {
		if v.IsExact() {
			code = v.Code
			want = v.Lo
			break
		}
	}
	if code == "" {
		t.Skip("no exact value in the last segment")
	}
	got, err := m.Generate(GenerateOptions{Count: 200, Seed: 3, Evidence: Evidence{last.Seg.Label: code}})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range got {
		if last.Seg.Value(a) != want {
			t.Fatalf("candidate %v violates evidence %s=%s", a, last.Seg.Label, code)
		}
	}
}

func TestGenerateSmallSupportStopsEarly(t *testing.T) {
	// A network with very few possible addresses: the generator cannot make
	// 10000 unique candidates and must stop at the attempt bound rather
	// than hang.
	var addrs []ip6.Addr
	base := ip6.MustParseAddr("2001:db8::")
	for i := 0; i < 8; i++ {
		addrs = append(addrs, base.SetField(31, 1, uint64(i)))
	}
	for i := 0; i < 100; i++ {
		addrs = append(addrs, addrs[i%8])
	}
	m, err := Build(addrs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Workers 4 runs the parallel execution, whose producers draw ahead
	// of the merge: the budget must still stop it.
	for _, workers := range []int{1, 4} {
		got, err := m.Generate(GenerateOptions{Count: 10000, Seed: 1, MaxAttemptsFactor: 2, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) >= 10000 {
			t.Errorf("workers=%d: expected fewer unique candidates than requested", workers)
		}
		if len(got) == 0 {
			t.Errorf("workers=%d: expected at least some candidates", workers)
		}
	}
}

func TestGeneratePrefixes(t *testing.T) {
	m, addrs := buildTestModel(t, 3000, 14, Options{})
	prefs, err := m.GeneratePrefixes(GenerateOptions{Count: 300, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(prefs) == 0 {
		t.Fatal("no prefixes generated")
	}
	seen := ip6.NewPrefixSet(len(prefs))
	for _, p := range prefs {
		if p.Bits() != 64 {
			t.Fatalf("prefix %v is not a /64", p)
		}
		if !seen.Add(p) {
			t.Fatalf("duplicate prefix %v", p)
		}
	}
	// Excluding the training /64s works.
	exclude := ip6.NewSet(len(addrs))
	exclude.AddAll(addrs)
	trainPrefixes := exclude.Prefixes(64)
	prefs, err = m.GeneratePrefixes(GenerateOptions{Count: 200, Seed: 6, Exclude: exclude})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range prefs {
		if trainPrefixes.Contains(p) {
			t.Fatalf("excluded /64 %v was generated", p)
		}
	}
}

func TestPrefix64OnlyModel(t *testing.T) {
	addrs := testNetwork(3000, 15)
	m, err := Build(addrs, Options{Prefix64Only: true})
	if err != nil {
		t.Fatal(err)
	}
	// All segments are within the first 16 nybbles.
	for _, sm := range m.Segments {
		if sm.Seg.End() > 16 {
			t.Errorf("segment %v extends past /64 in a Prefix64Only model", sm.Seg)
		}
	}
	// Generated addresses have a zero interface identifier.
	got, err := m.Generate(GenerateOptions{Count: 100, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range got {
		if a.Field(16, 16) != 0 {
			t.Errorf("candidate %v has a non-zero IID in a Prefix64Only model", a)
		}
	}
	prefs, err := m.GeneratePrefixes(GenerateOptions{Count: 100, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(prefs) == 0 {
		t.Error("no prefixes generated")
	}
	// Training on duplicates per /64 deduplicates: TrainCount is the number
	// of distinct /64s, not addresses.
	if m.TrainCount >= len(addrs) {
		t.Errorf("TrainCount = %d, want fewer than %d distinct /64s", m.TrainCount, len(addrs))
	}
}

func TestGenerateHitsHeldOutAddresses(t *testing.T) {
	// The headline behaviour of the paper (§5.5): trained on a small sample
	// of a structured network, the model should regenerate a meaningful
	// fraction of the held-out addresses. Our patterned variant (zero
	// middle, last byte 01, small subnet space) is guessable; the random
	// variant is not.
	addrs := testNetwork(30000, 16)
	train := addrs[:1000]
	test := ip6.NewSet(len(addrs))
	test.AddAll(addrs[1000:])
	m, err := Build(train, Options{})
	if err != nil {
		t.Fatal(err)
	}
	exclude := ip6.NewSet(len(train))
	exclude.AddAll(train)
	cands, err := m.Generate(GenerateOptions{Count: 20000, Seed: 9, Exclude: exclude})
	if err != nil {
		t.Fatal(err)
	}
	hits := 0
	for _, a := range cands {
		if test.Contains(a) {
			hits++
		}
	}
	if hits == 0 {
		t.Error("expected the model to rediscover at least some held-out addresses")
	}
	t.Logf("hit %d of %d candidates (%.2f%%)", hits, len(cands), 100*float64(hits)/float64(len(cands)))
}

func TestLearnedDependencyBetweenSubnetAndIID(t *testing.T) {
	// The training network couples the subnet selector (nybble 9) with the
	// IID style: subnets 0-3 hold ::1/::2 hosts, subnets 4-7 hold random
	// IIDs. The trained model must reflect that: P(IID = ::1-code) is much
	// higher given a patterned subnet than given a random-IID subnet.
	m, _ := buildTestModel(t, 4000, 17, Options{})
	iid := m.Segments[len(m.Segments)-1]
	var code1 string
	for _, v := range iid.Values {
		if v.IsExact() && v.Lo == 1 {
			code1 = v.Code
		}
	}
	if code1 == "" {
		t.Fatalf("::1 not mined: %+v", iid.Values)
	}
	selSeg, ok := m.Segmentation.At(9)
	if !ok {
		t.Fatal("no segment covers nybble 9")
	}
	patterned := ip6.MustParseAddr("2001:db8::").SetField(8, 2, 1)
	random := ip6.MustParseAddr("2001:db8::").SetField(8, 2, 6)
	evLow, err := m.EvidenceFromAddr(patterned, selSeg.Label)
	if err != nil {
		t.Fatal(err)
	}
	evHigh, err := m.EvidenceFromAddr(random, selSeg.Label)
	if err != nil {
		t.Fatal(err)
	}
	pLow, err := m.ConditionalProb(iid.Seg.Label, code1, evLow)
	if err != nil {
		t.Fatal(err)
	}
	pHigh, err := m.ConditionalProb(iid.Seg.Label, code1, evHigh)
	if err != nil {
		t.Fatal(err)
	}
	if pLow < 5*pHigh {
		t.Errorf("P(IID=::1 | patterned subnet) = %v should greatly exceed %v (random-IID subnet)", pLow, pHigh)
	}
	// Likelihood sanity: finite and negative on training data.
	ll := m.AddressLogLikelihood(testNetwork(100, 18))
	if !(ll < 0) || math.IsInf(ll, 0) || math.IsNaN(ll) {
		t.Errorf("AddressLogLikelihood = %v", ll)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	m, addrs := buildTestModel(t, 3000, 19, Options{})
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.TrainCount != m.TrainCount {
		t.Errorf("TrainCount = %d, want %d", loaded.TrainCount, m.TrainCount)
	}
	if len(loaded.Segments) != len(m.Segments) {
		t.Fatalf("segments = %d, want %d", len(loaded.Segments), len(m.Segments))
	}
	// Conditional probabilities agree.
	pOrig, err := m.ConditionalProb("A", "A1", nil)
	if err != nil {
		t.Fatal(err)
	}
	pLoaded, err := loaded.ConditionalProb("A", "A1", nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pOrig-pLoaded) > 1e-12 {
		t.Errorf("conditional probability changed after round trip: %v vs %v", pOrig, pLoaded)
	}
	// Generation with the same seed produces the same candidates.
	a1, err := m.Generate(GenerateOptions{Count: 200, Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	a2, err := loaded.Generate(GenerateOptions{Count: 200, Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	if len(a1) != len(a2) {
		t.Fatalf("lengths differ: %d vs %d", len(a1), len(a2))
	}
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Fatal("loaded model generates differently")
		}
	}
	// Entropy profile preserved.
	for i := range m.Profile.H {
		if math.Abs(m.Profile.H[i]-loaded.Profile.H[i]) > 1e-12 {
			t.Fatal("entropy profile changed after round trip")
		}
	}
	_ = addrs
}

func TestLoadRejectsCorrupt(t *testing.T) {
	if _, err := Load(bytes.NewBufferString("{")); err == nil {
		t.Error("truncated JSON should fail")
	}
	if _, err := Load(bytes.NewBufferString(`{"version": 99}`)); err == nil {
		t.Error("unknown version should fail")
	}
	if _, err := Load(bytes.NewBufferString(`{"version": 1}`)); err == nil {
		t.Error("missing network should fail")
	}
}

func BenchmarkBuild1K(b *testing.B) {
	addrs := testNetwork(1000, 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(addrs, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGenerate1K(b *testing.B) {
	addrs := testNetwork(1000, 21)
	m, err := Build(addrs, Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Generate(GenerateOptions{Count: 1000, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGenerate1KEvidenceStop is BenchmarkGenerate1K under
// one-segment evidence with a Stop hook shaped like the server's (a
// context check and a drain flag): the evidence request of a scanner
// client, run in process.
func BenchmarkGenerate1KEvidenceStop(b *testing.B) {
	m, err := Build(testNetwork(1000, 21), Options{})
	if err != nil {
		b.Fatal(err)
	}
	ev := genEvidence(b, m)
	ctx := context.Background()
	var draining atomic.Bool
	stop := func() bool { return ctx.Err() != nil || draining.Load() }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Generate(GenerateOptions{Count: 1000, Seed: int64(i), Evidence: ev, Stop: stop}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestAddressLogLikelihoodOrdering pins the invariants the drift/shadow
// machinery depends on: in-distribution addresses score better than
// out-of-support ones — even when the model mines very wide ranges whose
// within-range density is itself low — and the mean form is per-address.
func TestAddressLogLikelihoodOrdering(t *testing.T) {
	// testNetwork mines a pseudo-random 64-bit-wide IID segment (width 16
	// nybbles), the widest range the format allows, so a constant floor
	// below its density would invert the comparison this test pins.
	m, addrs := buildTestModel(t, 4000, 1, Options{})
	inDist := addrs[:500]

	// Same structure, different /32: every segment value covering the
	// prefix falls outside the mined support.
	shifted := make([]ip6.Addr, len(inDist))
	for i, a := range inDist {
		shifted[i] = a.SetField(0, 8, 0x20020000)
	}

	inLL := m.MeanAddressLogLikelihood(inDist)
	outLL := m.MeanAddressLogLikelihood(shifted)
	if inLL >= 0 {
		t.Errorf("in-distribution mean LL = %v, want negative", inLL)
	}
	if outLL >= inLL {
		t.Errorf("out-of-support mean LL %v not below in-distribution %v", outLL, inLL)
	}

	// Mean form is total/len, zero on empty.
	if got := m.MeanAddressLogLikelihood(nil); got != 0 {
		t.Errorf("empty mean LL = %v", got)
	}
	total := m.AddressLogLikelihood(inDist)
	if diff := total/float64(len(inDist)) - inLL; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("mean %v != total/len %v", inLL, total/float64(len(inDist)))
	}

	// The single-pass window encoding agrees with the one-shot form.
	enc := m.EncodeWindow(inDist)
	if got := enc.LogLikelihood(); got != total {
		t.Errorf("EncodeWindow LL %v != AddressLogLikelihood %v", got, total)
	}
	counted := 0
	for _, row := range enc.CodeCounts[0] {
		counted += row
	}
	if counted != len(inDist) {
		t.Errorf("segment 0 code counts sum to %d, want %d", counted, len(inDist))
	}
}
