package core

import (
	"math"
	"math/rand"
	"testing"

	"entropyip/internal/ip6"
)

// testNetwork synthesizes a structured address population reminiscent of
// the networks in the paper: one /32, a subnet part, and two addressing
// variants whose choice is visible in the subnet bits — subnets 0-3 hold
// point-to-point style hosts (zero IID ending in 1 or 2, as in the paper's
// R1/R2), subnets 4-7 hold hosts with pseudo-random IIDs. The cross-segment
// coupling between the subnet selector and the IID is what the Bayesian
// network is expected to discover.
func testNetwork(n int, seed int64) []ip6.Addr {
	rng := rand.New(rand.NewSource(seed))
	base := ip6.MustParseAddr("2001:db8::")
	out := make([]ip6.Addr, n)
	for i := range out {
		a := base
		patterned := rng.Float64() < 0.5
		if patterned {
			a = a.SetField(8, 2, uint64(rng.Intn(4))) // subnet selector 0-3
		} else {
			a = a.SetField(8, 2, 4+uint64(rng.Intn(4))) // subnet selector 4-7
		}
		a = a.SetField(10, 6, uint64(rng.Intn(400))) // finer subnet bits
		if patterned {
			a = a.SetField(16, 15, 0)
			a = a.SetField(31, 1, 1+uint64(rng.Intn(2))) // IID ::1 or ::2
		} else {
			a = a.SetField(16, 16, rng.Uint64()) // pseudo-random IID
		}
		out[i] = a
	}
	return out
}

func buildTestModel(t *testing.T, n int, seed int64, opts Options) (*Model, []ip6.Addr) {
	t.Helper()
	addrs := testNetwork(n, seed)
	m, err := Build(addrs, opts)
	if err != nil {
		t.Fatal(err)
	}
	return m, addrs
}

func TestBuildBasicInvariants(t *testing.T) {
	m, addrs := buildTestModel(t, 4000, 1, Options{})
	if m.TrainCount != len(addrs) {
		t.Errorf("TrainCount = %d", m.TrainCount)
	}
	if err := m.Segmentation.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := m.Net.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(m.Segments) != len(m.Segmentation.Segments) {
		t.Error("segment model count mismatch")
	}
	if got := m.Net.NumVars(); got != len(m.Segments) {
		t.Errorf("network vars = %d, segments = %d", got, len(m.Segments))
	}
	if m.TotalEntropy() <= 0 {
		t.Error("total entropy should be positive")
	}
	// The constant /32 prefix must be a zero-entropy segment A covering
	// exactly bits 0-32 with a single mined value.
	segA := m.Segments[0]
	if segA.Seg.Label != "A" || segA.Seg.StartBit() != 0 || segA.Seg.EndBit() != 32 {
		t.Errorf("segment A = %v", segA.Seg)
	}
	if segA.Arity() != 1 || segA.Values[0].Lo != 0x20010db8 {
		t.Errorf("segment A values = %+v", segA.Values)
	}
}

// TestBuildKeepsCompiledEncoder checks that Build returns a finished
// model: the encoder its compile stage built, with both compiled forms,
// and the scorer, so the first Generate or EncodeWindow builds nothing.
func TestBuildKeepsCompiledEncoder(t *testing.T) {
	m, _ := buildTestModel(t, 500, 1, Options{})
	if enc := m.Encoder(); enc == nil || enc.Compiled() == nil || enc.Decoder() == nil {
		t.Fatalf("Build returned encoder %+v, want one with its compiled encoder and decoder", enc)
	}
	if m.Scorer() == nil {
		t.Error("Build returned a model without its scorer")
	}
}

func TestBuildEmptyErrors(t *testing.T) {
	if _, err := Build(nil, Options{}); err != ErrNoData {
		t.Errorf("expected ErrNoData, got %v", err)
	}
}

func TestSegmentByLabel(t *testing.T) {
	m, _ := buildTestModel(t, 1000, 2, Options{})
	i, sm, ok := m.SegmentByLabel("A")
	if !ok || i != 0 || sm.Seg.Label != "A" {
		t.Error("SegmentByLabel(A) failed")
	}
	if _, _, ok := m.SegmentByLabel("ZZ"); ok {
		t.Error("unknown label should not be found")
	}
}

func TestBrowseAndConditioning(t *testing.T) {
	m, _ := buildTestModel(t, 6000, 3, Options{})
	// Unconditioned browse: distributions sum to 1.
	dists, err := m.Browse(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(dists) != len(m.Segments) {
		t.Fatalf("distributions = %d", len(dists))
	}
	for _, d := range dists {
		sum := 0.0
		for _, e := range d.Entries {
			if e.Prob < 0 || e.Prob > 1+1e-9 {
				t.Errorf("probability out of range: %+v", e)
			}
			sum += e.Prob
		}
		if math.Abs(sum-1) > 1e-6 {
			t.Errorf("segment %s posterior sums to %v", d.Label, sum)
		}
		if len(d.Entries) == 0 {
			t.Errorf("segment %s has no entries", d.Label)
		}
	}
	// Find the IID segment's exact value 1 (the ::1 point-to-point hosts);
	// conditioning on it should shift the subnet-selector segment toward
	// the patterned subnets 0-3.
	last := m.Segments[len(m.Segments)-1]
	var code string
	for _, v := range last.Values {
		if v.IsExact() && v.Lo == 0x01 {
			code = v.Code
		}
	}
	if code == "" {
		t.Fatalf("the ::1 IID was not mined as an exact value: %+v", last.Values)
	}
	cond, err := m.Browse(Evidence{last.Seg.Label: code})
	if err != nil {
		t.Fatal(err)
	}
	// The conditioned browse must differ from the unconditioned one
	// somewhere upstream (evidential reasoning flows backwards).
	changed := false
	for i := range dists {
		for k := range dists[i].Entries {
			if math.Abs(dists[i].Entries[k].Prob-cond[i].Entries[k].Prob) > 0.05 {
				changed = true
			}
		}
	}
	if !changed {
		t.Error("conditioning on the last segment should change upstream distributions")
	}
}

func TestConditionalProb(t *testing.T) {
	m, _ := buildTestModel(t, 5000, 4, Options{})
	// P(A = A1) must be 1: single /32.
	p, err := m.ConditionalProb("A", "A1", nil)
	if err != nil {
		t.Fatal(err)
	}
	if p < 0.999 {
		t.Errorf("P(A=A1) = %v, want ~1", p)
	}
	// Errors.
	if _, err := m.ConditionalProb("ZZ", "Z1", nil); err == nil {
		t.Error("unknown target segment should error")
	}
	if _, err := m.ConditionalProb("A", "A9", nil); err == nil {
		t.Error("unknown target code should error")
	}
	if _, err := m.ConditionalProb("A", "A1", Evidence{"Q": "Q1"}); err == nil {
		t.Error("unknown evidence segment should error")
	}
	if _, err := m.ConditionalProb("A", "A1", Evidence{"A": "A7"}); err == nil {
		t.Error("unknown evidence code should error")
	}
}

func TestEvidenceFromAddr(t *testing.T) {
	m, addrs := buildTestModel(t, 2000, 5, Options{})
	ev, err := m.EvidenceFromAddr(addrs[0], "A")
	if err != nil {
		t.Fatal(err)
	}
	if ev["A"] != "A1" {
		t.Errorf("evidence = %v", ev)
	}
	if _, err := m.EvidenceFromAddr(addrs[0], "NOPE"); err == nil {
		t.Error("unknown label should error")
	}
}

func TestDependenciesAndInfluences(t *testing.T) {
	m, _ := buildTestModel(t, 6000, 6, Options{})
	deps := m.Dependencies()
	if len(deps) == 0 {
		t.Fatal("expected at least one BN dependency in the patterned network")
	}
	for i := 1; i < len(deps); i++ {
		if deps[i].MI > deps[i-1].MI+1e-9 {
			t.Error("dependencies not sorted by MI")
		}
	}
	for _, d := range deps {
		if d.Parent == "" || d.Child == "" {
			t.Error("dependency with empty label")
		}
		if d.MI < -1e-9 {
			t.Errorf("negative MI: %+v", d)
		}
	}
	// DirectInfluences of a segment that appears in some edge.
	lbl := deps[0].Child
	inf, err := m.DirectInfluences(lbl)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, l := range inf {
		if l == deps[0].Parent {
			found = true
		}
	}
	if !found {
		t.Errorf("DirectInfluences(%s) = %v should contain %s", lbl, inf, deps[0].Parent)
	}
	if _, err := m.DirectInfluences("ZZ"); err == nil {
		t.Error("unknown label should error")
	}
}

func TestModelOnUniformRandomAddresses(t *testing.T) {
	// A model built on totally random addresses must still be valid: high
	// entropy everywhere, few (range-only) mined values, no crash.
	rng := rand.New(rand.NewSource(7))
	addrs := make([]ip6.Addr, 2000)
	for i := range addrs {
		var b [16]byte
		rng.Read(b[:])
		addrs[i] = ip6.AddrFrom16(b)
	}
	m, err := Build(addrs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if m.TotalEntropy() < 25 {
		t.Errorf("total entropy = %v, want close to 32", m.TotalEntropy())
	}
	if _, err := m.Generate(GenerateOptions{Count: 100, Seed: 1}); err != nil {
		t.Fatal(err)
	}
}
