package entropy

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"entropyip/internal/ip6"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) < eps }

func TestShannon(t *testing.T) {
	if Shannon(nil) != 0 || Shannon([]int{0, 0}) != 0 {
		t.Error("empty distributions have zero entropy")
	}
	if Shannon([]int{7}) != 0 {
		t.Error("single outcome has zero entropy")
	}
	if !almostEqual(Shannon([]int{1, 1}), 1, 1e-12) {
		t.Error("fair coin should have 1 bit")
	}
	if !almostEqual(Shannon([]int{1, 1, 1, 1}), 2, 1e-12) {
		t.Error("uniform over 4 should have 2 bits")
	}
	// Paper's example (Eq. 2): values {c:2, f:3} -> normalized by log2(16)
	// gives about 0.24.
	h := Shannon([]int{2, 3})
	if !almostEqual(Normalized(h, 16), 0.2427, 5e-4) {
		t.Errorf("paper example: normalized entropy = %v, want ~0.243", Normalized(h, 16))
	}
	// Negative counts ignored.
	if !almostEqual(Shannon([]int{-5, 1, 1}), 1, 1e-12) {
		t.Error("negative counts must be ignored")
	}
}

func TestShannonMap(t *testing.T) {
	if ShannonMap(map[string]int{}) != 0 {
		t.Error("empty map has zero entropy")
	}
	m := map[string]int{"a": 1, "b": 1, "c": 1, "d": 1}
	if !almostEqual(ShannonMap(m), 2, 1e-12) {
		t.Error("uniform over 4 keys should have 2 bits")
	}
	if !almostEqual(ShannonMap(map[int]int{1: 3, 2: -1}), 0, 1e-12) {
		t.Error("non-positive counts ignored")
	}
}

func TestNormalized(t *testing.T) {
	if Normalized(3, 1) != 0 || Normalized(3, 0) != 0 || Normalized(-1, 16) != 0 {
		t.Error("degenerate normalization should be 0")
	}
	if !almostEqual(Normalized(4, 16), 1, 1e-12) {
		t.Error("4 bits over 16 outcomes is maximal")
	}
}

func TestShannonUpperBoundProperty(t *testing.T) {
	// Property: 0 <= H <= log2(#positive outcomes).
	f := func(raw []uint8) bool {
		counts := make([]int, len(raw))
		k := 0
		for i, v := range raw {
			counts[i] = int(v)
			if v > 0 {
				k++
			}
		}
		h := Shannon(counts)
		if h < 0 {
			return false
		}
		if k == 0 {
			return h == 0
		}
		return h <= math.Log2(float64(k))+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func constantAddrs(n int, s string) []ip6.Addr {
	a := ip6.MustParseAddr(s)
	out := make([]ip6.Addr, n)
	for i := range out {
		out[i] = a
	}
	return out
}

func TestProfileConstantSet(t *testing.T) {
	p := NewProfile(constantAddrs(100, "2001:db8::1"))
	if p.N != 100 {
		t.Fatalf("N = %d", p.N)
	}
	for i, h := range p.H {
		if h != 0 {
			t.Errorf("nybble %d entropy = %v, want 0 for constant set", i, h)
		}
	}
	if p.Total() != 0 {
		t.Errorf("Total = %v", p.Total())
	}
	v, ok := p.Constant(0)
	if !ok || v != 2 {
		t.Errorf("Constant(0) = %v, %v", v, ok)
	}
	mc, prob := p.MostCommon(31)
	if mc != 1 || prob != 1 {
		t.Errorf("MostCommon(31) = %v, %v", mc, prob)
	}
}

func TestProfilePaperExample(t *testing.T) {
	// Fig. 3 of the paper: five addresses where the last nybble takes "c"
	// twice and "f" thrice -> normalized entropy ~0.24.
	lines := []string{
		"20010db840011111000000000000111c",
		"20010db840011111000000000000111f",
		"20010db840031c13000000000000200c",
		"20010db8400a2f2a000000000000200f",
		"20010db840011111000000000000111f",
	}
	addrs := make([]ip6.Addr, len(lines))
	for i, l := range lines {
		addrs[i] = ip6.MustParseAddr(l)
	}
	p := NewProfile(addrs)
	if !almostEqual(p.H[31], 0.2427, 5e-4) {
		t.Errorf("H[31] = %v, want ~0.243 (paper Eq. 2)", p.H[31])
	}
	// Hex chars 1-11 (0-based 0..10) are constant in Fig. 3.
	for i := 0; i < 11; i++ {
		if p.H[i] != 0 {
			t.Errorf("H[%d] = %v, want 0", i, p.H[i])
		}
	}
	// Hex chars 12-16 (0-based 11..15) vary.
	varying := false
	for i := 11; i < 16; i++ {
		if p.H[i] > 0 {
			varying = true
		}
	}
	if !varying {
		t.Error("expected some entropy in nybbles 11..15")
	}
}

func TestProfileRandomIIDApproachesOne(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	addrs := make([]ip6.Addr, 20000)
	base := ip6.MustParseAddr("2001:db8:1:2::")
	for i := range addrs {
		a := base
		a = a.SetField(16, 16, rng.Uint64())
		addrs[i] = a
	}
	p := NewProfile(addrs)
	for i := 0; i < 16; i++ {
		if p.H[i] != 0 {
			t.Errorf("network nybble %d should be constant", i)
		}
	}
	for i := 16; i < 32; i++ {
		if p.H[i] < 0.99 {
			t.Errorf("IID nybble %d entropy = %v, want ~1", i, p.H[i])
		}
	}
	if p.Total() < 15.8 || p.Total() > 16.2 {
		t.Errorf("Total = %v, want ~16", p.Total())
	}
}

func TestProfileEmpty(t *testing.T) {
	p := NewProfile(nil)
	if p.Total() != 0 {
		t.Error("empty profile should have zero entropy")
	}
	if _, ok := p.Constant(0); ok {
		t.Error("Constant on empty profile should be false")
	}
	if _, prob := p.MostCommon(0); prob != 0 {
		t.Error("MostCommon on empty profile should have probability 0")
	}
}

func TestConstantDetectsMixed(t *testing.T) {
	addrs := []ip6.Addr{ip6.MustParseAddr("2001:db8::1"), ip6.MustParseAddr("3001:db8::1")}
	p := NewProfile(addrs)
	if _, ok := p.Constant(0); ok {
		t.Error("nybble 0 is not constant")
	}
	if v, ok := p.Constant(1); !ok || v != 0 {
		t.Error("nybble 1 should be constant 0")
	}
}

func TestWindowed(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	// Addresses: constant /64, random low 16 bits.
	addrs := make([]ip6.Addr, 5000)
	base := ip6.MustParseAddr("2001:db8::")
	for i := range addrs {
		addrs[i] = base.SetField(28, 4, rng.Uint64())
	}
	w := NewWindowed(addrs)
	if len(w) != ip6.NybbleCount {
		t.Fatalf("rows = %d", len(w))
	}
	for pos, row := range w {
		if len(row) != ip6.NybbleCount-pos {
			t.Fatalf("row %d length = %d", pos, len(row))
		}
	}
	// Window fully inside the constant part has zero entropy.
	if w[0][15] != 0 {
		t.Errorf("constant window entropy = %v", w[0][15])
	}
	// Window over the random low nybbles: entropy is bounded by the number
	// of samples, log2(5000) ≈ 12.3 bits.
	if w[28][3] < 11.5 {
		t.Errorf("random window entropy = %v, want ~12.3", w[28][3])
	}
	// Full-length window entropy equals entropy over whole addresses.
	if w[0][31] < 12 {
		t.Errorf("full window entropy = %v, want close to log2(5000)", w[0][31])
	}
	// Monotone in window length for fixed position.
	for length := 2; length <= 32; length++ {
		if w[0][length-1] < w[0][length-2]-1e-9 {
			t.Errorf("windowed entropy not monotone at length %d", length)
		}
	}
	if w.Max() < 11.5 {
		t.Errorf("Max = %v", w.Max())
	}
	// An empty set keeps the full shape, all zero.
	empty := NewWindowed(nil)
	if len(empty) != ip6.NybbleCount || len(empty[0]) != ip6.NybbleCount {
		t.Fatalf("empty set: %d rows, row 0 has %d entries", len(empty), len(empty[0]))
	}
	if empty.Max() != 0 {
		t.Errorf("empty set: Max = %v, want 0", empty.Max())
	}
}

// (The former BenchmarkNewProfile10K lives on as the CI-gated
// BenchmarkNewProfile10k in bench_test.go, which uses the synthetic S1
// population instead of uniform random addresses.)

func BenchmarkNewWindowed1K(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	addrs := make([]ip6.Addr, 1000)
	for i := range addrs {
		var buf [16]byte
		rng.Read(buf[:])
		addrs[i] = ip6.AddrFrom16(buf)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = NewWindowed(addrs)
	}
}

func TestDistribution(t *testing.T) {
	if d := Distribution(nil); d != nil {
		t.Errorf("Distribution(nil) = %v, want nil", d)
	}
	if d := Distribution([]int{0, 0}); d != nil {
		t.Errorf("Distribution(zeros) = %v, want nil", d)
	}
	d := Distribution([]int{1, 3, 0})
	want := []float64{0.25, 0.75, 0}
	for i := range want {
		if math.Abs(d[i]-want[i]) > 1e-12 {
			t.Errorf("Distribution[%d] = %v, want %v", i, d[i], want[i])
		}
	}
}

func TestKLDivergence(t *testing.T) {
	p := []float64{0.5, 0.5}
	if d := KLDivergence(p, p, 0); d != 0 {
		t.Errorf("KL(p,p) = %v, want 0", d)
	}
	// KL([1,0],[0.5,0.5]) = 1*log2(1/0.5) = 1 bit (up to smoothing).
	d := KLDivergence([]float64{1, 0}, []float64{0.5, 0.5}, 0)
	if math.Abs(d-1) > 1e-6 {
		t.Errorf("KL([1,0],[.5,.5]) = %v, want 1", d)
	}
	// Disjoint support stays finite thanks to smoothing.
	d = KLDivergence([]float64{1, 0}, []float64{0, 1}, 0)
	if math.IsInf(d, 1) || d <= 1 {
		t.Errorf("KL disjoint = %v, want large but finite", d)
	}
	if d := KLDivergence([]float64{1}, []float64{0.5, 0.5}, 0); d != 0 {
		t.Errorf("KL mismatched lengths = %v, want 0", d)
	}
}

func TestJensenShannon(t *testing.T) {
	p := []float64{0.25, 0.75}
	if d := JensenShannon(p, p); d != 0 {
		t.Errorf("JS(p,p) = %v, want 0", d)
	}
	// Disjoint support: exactly 1 bit.
	if d := JensenShannon([]float64{1, 0}, []float64{0, 1}); math.Abs(d-1) > 1e-12 {
		t.Errorf("JS disjoint = %v, want 1", d)
	}
	// Symmetric.
	q := []float64{0.9, 0.1}
	if d1, d2 := JensenShannon(p, q), JensenShannon(q, p); d1 != d2 {
		t.Errorf("JS not symmetric: %v vs %v", d1, d2)
	}
	// Unnormalized counts behave like their normalization.
	if d1, d2 := JensenShannon([]float64{1, 3}, []float64{9, 1}), JensenShannon(p, q); math.Abs(d1-d2) > 1e-12 {
		t.Errorf("JS unnormalized = %v, want %v", d1, d2)
	}
	// Differing lengths treat missing entries as zero probability.
	if d := JensenShannon([]float64{1}, []float64{0.5, 0.5}); d <= 0 || d > 1 {
		t.Errorf("JS ragged = %v, want in (0,1]", d)
	}
	if d := JensenShannon(nil, nil); d != 0 {
		t.Errorf("JS(nil,nil) = %v, want 0", d)
	}
}
