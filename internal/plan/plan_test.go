package plan

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"entropyip/internal/ip6"
)

func rng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func TestPlanValidate(t *testing.T) {
	good := &Plan{Name: "g", Fields: []Field{{Name: "p", Start: 0, Width: 8, Gen: Const(0x20010db8)}}}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []*Plan{
		{Name: "w0", Fields: []Field{{Start: 0, Width: 0, Gen: Const(1)}}},
		{Name: "w17", Fields: []Field{{Start: 0, Width: 17, Gen: Const(1)}}},
		{Name: "over", Fields: []Field{{Start: 30, Width: 4, Gen: Const(1)}}},
		{Name: "nogen", Fields: []Field{{Start: 0, Width: 4}}},
	}
	for _, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("plan %q should fail validation", p.Name)
		}
	}
}

func TestPlanGenerate(t *testing.T) {
	p := &Plan{Name: "test", Fields: []Field{
		{Name: "prefix", Start: 0, Width: 8, Gen: Const(0x20010db8)},
		{Name: "subnet", Start: 8, Width: 8, Gen: Uniform(0, 15)},
		{Name: "iid", Start: 16, Width: 16, Gen: Const(1)},
	}}
	r := rng(1)
	p32 := ip6.PrefixFrom(ip6.MustParseAddr("2001:db8::"), 32)
	for i := 0; i < 500; i++ {
		a := p.One(r)
		if !p32.Contains(a) {
			t.Fatalf("address %v outside the plan's prefix", a)
		}
		if a.Field(16, 16) != 1 {
			t.Fatalf("IID of %v is not ::1", a)
		}
		if a.Field(8, 8) > 15 {
			t.Fatalf("subnet out of range in %v", a)
		}
	}
}

func TestPlanGenerateUnique(t *testing.T) {
	p := &Plan{Name: "small", Fields: []Field{
		{Name: "prefix", Start: 0, Width: 8, Gen: Const(0x20010db8)},
		{Name: "host", Start: 31, Width: 1, Gen: Uniform(0, 7)},
	}}
	m := &Mixture{Name: "small", Components: []Component{{Weight: 1, Plan: p}}}
	got := m.GenerateUnique(rng(2), 100)
	if len(got) != 8 {
		t.Errorf("unique addresses = %d, want 8 (the whole plan space)", len(got))
	}
	set := ip6.NewSet(8)
	for _, a := range got {
		if !set.Add(a) {
			t.Error("duplicate in GenerateUnique")
		}
	}
}

func TestMixtureWeights(t *testing.T) {
	a := &Plan{Name: "a", Fields: []Field{{Name: "x", Start: 0, Width: 8, Gen: Const(0x20010db8)}}}
	b := &Plan{Name: "b", Fields: []Field{{Name: "x", Start: 0, Width: 8, Gen: Const(0x30010db8)}}}
	m := &Mixture{Name: "mix", Components: []Component{{Weight: 0.635, Plan: a}, {Weight: 0.365, Plan: b}}}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	r := rng(3)
	countA := 0
	for i := 0; i < 20000; i++ {
		if m.One(r).Field(0, 8) == 0x20010db8 {
			countA++
		}
	}
	got := float64(countA) / 20000
	if math.Abs(got-0.635) > 0.02 {
		t.Errorf("variant A fraction = %v, want ~0.635", got)
	}
	// Unique generation across a mixture.
	u := m.GenerateUnique(rng(4), 10)
	if len(u) != 2 {
		t.Errorf("unique = %d, want 2 (each variant has one address)", len(u))
	}
}

func TestMixtureValidateErrors(t *testing.T) {
	good := &Plan{Name: "g", Fields: []Field{{Name: "x", Start: 0, Width: 4, Gen: Const(1)}}}
	cases := []*Mixture{
		{Name: "empty"},
		{Name: "zero", Components: []Component{{Weight: 0, Plan: good}}},
		{Name: "nil", Components: []Component{{Weight: 1, Plan: nil}}},
		{Name: "badplan", Components: []Component{{Weight: 1, Plan: &Plan{Name: "bad", Fields: []Field{{Start: 0, Width: 99, Gen: Const(1)}}}}}},
	}
	for _, m := range cases {
		if err := m.Validate(); err == nil {
			t.Errorf("mixture %q should fail validation", m.Name)
		}
	}
}

func TestConstAndZero(t *testing.T) {
	if Const(42).Value(rng(1), 4) != 42 {
		t.Error("Const wrong")
	}
}

func TestChoiceDistribution(t *testing.T) {
	g := Choice([]uint64{1, 2, 3}, []float64{0.7, 0.2, 0.1})
	r := rng(5)
	counts := map[uint64]int{}
	for i := 0; i < 30000; i++ {
		counts[g.Value(r, 4)]++
	}
	if math.Abs(float64(counts[1])/30000-0.7) > 0.02 {
		t.Errorf("P(1) = %v", float64(counts[1])/30000)
	}
	if counts[1]+counts[2]+counts[3] != 30000 {
		t.Error("Choice produced an unexpected value")
	}
	// UniformChoice.
	u := UniformChoice(7, 9)
	c7 := 0
	for i := 0; i < 10000; i++ {
		if u.Value(r, 4) == 7 {
			c7++
		}
	}
	if math.Abs(float64(c7)/10000-0.5) > 0.03 {
		t.Errorf("UniformChoice P(7) = %v", float64(c7)/10000)
	}
}

func TestChoicePanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"empty":    func() { Choice(nil, nil) },
		"mismatch": func() { Choice([]uint64{1}, []float64{1, 2}) },
		"negative": func() { Choice([]uint64{1}, []float64{-1}) },
		"zero":     func() { Choice([]uint64{1, 2}, []float64{0, 0}) },
		"eui64":    func() { EUI64() },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestUniformBounds(t *testing.T) {
	g := Uniform(100, 200)
	r := rng(6)
	for i := 0; i < 2000; i++ {
		v := g.Value(r, 4)
		if v < 100 || v > 200 {
			t.Fatalf("value %d out of range", v)
		}
	}
	// Swapped bounds are normalized.
	g2 := Uniform(50, 10)
	for i := 0; i < 100; i++ {
		v := g2.Value(r, 4)
		if v < 10 || v > 50 {
			t.Fatalf("value %d out of swapped range", v)
		}
	}
	// Full 64-bit range does not hang.
	_ = Uniform(0, ^uint64(0)).Value(r, 16)
}

func TestRandomRespectsWidth(t *testing.T) {
	g := Random()
	r := rng(7)
	for i := 0; i < 1000; i++ {
		if v := g.Value(r, 2); v > 0xff {
			t.Fatalf("2-nybble random value %x out of range", v)
		}
	}
	_ = g.Value(r, 16) // full width must not mask
}

func TestSLAACPrivacyClearsUBit(t *testing.T) {
	g := SLAACPrivacy()
	r := rng(9)
	for i := 0; i < 1000; i++ {
		iid := g.Value(r, 16)
		if iid&(1<<57) != 0 {
			t.Fatal("u bit must be cleared in privacy IIDs")
		}
	}
	// Entropy dip check: build addresses and verify the u-bit nybble has
	// lower entropy than its neighbours (the Fig. 6 signature).
	p := &Plan{Name: "priv", Fields: []Field{
		{Name: "net", Start: 0, Width: 16, Gen: Const(0x20010db800000001)},
		{Name: "iid", Start: 16, Width: 16, Gen: SLAACPrivacy()},
	}}
	counts := map[byte]int{}
	for i := 0; i < 5000; i++ {
		counts[p.One(r).Nybble(17)]++ // bits 68-72
	}
	if len(counts) > 8 {
		t.Errorf("u-bit nybble takes %d distinct values, want at most 8", len(counts))
	}
}

func TestEUI64Generator(t *testing.T) {
	// OUIs with the u/l bit clear, as real vendor OUIs have.
	g := EUI64(0x001122, 0xa4bbcc)
	r := rng(10)
	p := &Plan{Name: "eui", Fields: []Field{
		{Name: "net", Start: 0, Width: 16, Gen: Const(0x20010db800000001)},
		{Name: "iid", Start: 16, Width: 16, Gen: g},
	}}
	for i := 0; i < 500; i++ {
		a := p.One(r)
		if !ip6.IsEUI64(a) {
			t.Fatalf("address %v is not EUI-64", a)
		}
		if !isGloballyUniqueEUI64(a) {
			t.Fatalf("address %v should have the u bit set", a)
		}
		oui := a.Field(16, 6) &^ (1 << 17) // undo u-bit inversion within the first 24 bits
		if oui != 0x001122 && oui != 0xa4bbcc {
			t.Fatalf("unexpected OUI %06x", oui)
		}
	}
}

func TestEmbeddedIPv4Hex(t *testing.T) {
	g := EmbeddedIPv4Hex(127)
	r := rng(11)
	for i := 0; i < 200; i++ {
		v := g.Value(r, 8)
		if v>>24 != 127 {
			t.Fatalf("first octet = %d, want 127", v>>24)
		}
		if v > 0xffffffff {
			t.Fatal("embedded IPv4 must fit 32 bits")
		}
	}
}

func TestEmbeddedIPv4Decimal(t *testing.T) {
	g := EmbeddedIPv4DecimalPool(192<<24, 24)
	r := rng(12)
	p := &Plan{Name: "r4", Fields: []Field{
		{Name: "net", Start: 0, Width: 16, Gen: Const(0x20010db800000001)},
		{Name: "iid", Start: 16, Width: 16, Gen: g},
	}}
	for i := 0; i < 500; i++ {
		a := p.One(r)
		v4, ok := embeddedDecimalIPv4(a)
		if !ok {
			t.Fatalf("address %v does not decode as decimal-embedded IPv4", a)
		}
		if v4>>24 != 192 {
			t.Fatalf("first octet = %d", v4>>24)
		}
	}
}

func TestDecimalAsHexWord(t *testing.T) {
	cases := map[uint64]uint64{0: 0, 7: 7, 33: 0x33, 192: 0x192, 255: 0x255}
	for in, want := range cases {
		if got := decimalAsHexWord(in); got != want {
			t.Errorf("decimalAsHexWord(%d) = %x, want %x", in, got, want)
		}
	}
}

// TestFuncGenerator checks that a Func generator's value lands in its
// field, masked to the field's width, and that later fields overwrite
// what earlier ones wrote to the same nybbles: one inside the high half
// and one straddling bit 64.
func TestFuncGenerator(t *testing.T) {
	g := Func(func(_ *rand.Rand, width int) uint64 {
		return 0xf1230 + uint64(width)
	})
	p := &Plan{Name: "f", Fields: []Field{
		{Name: "net", Start: 0, Width: 16, Gen: Const(0x20010db8fffff0ff)},
		{Name: "iid", Start: 16, Width: 16, Gen: Const(^uint64(0))},
		{Name: "mid", Start: 14, Width: 4, Gen: g},
		{Name: "zero", Start: 4, Width: 2, Gen: Const(0)},
	}}
	a := p.One(rng(14))
	if got := a.Field(14, 4); got != 0x1234 {
		t.Errorf("Func field = %x, want 1234 (0xf1234 masked to 4 nybbles): %v", got, a)
	}
	if hi, lo := a.Uint64s(); hi != 0x200100b8fffff012 || lo != 0x34ffffffffffffff {
		t.Errorf("address = %016x %016x, want 200100b8fffff012 34ffffffffffffff", hi, lo)
	}
}

// TestChoiceMatchesSearch checks lowerBound, Choice's inlined search,
// against sort.SearchFloat64s on random cumulative weight rows that
// include zero weights (repeated cut points), for random draws and for
// draws exactly on every cut point.
func TestChoiceMatchesSearch(t *testing.T) {
	r := rng(15)
	for row := 0; row < 500; row++ {
		cum := make([]float64, 1+r.Intn(40))
		total := 0.0
		for i := range cum {
			if r.Intn(3) > 0 {
				total += r.Float64()
			}
			cum[i] = total
		}
		xs := append([]float64{0, total}, cum...)
		for i := 0; i < 50; i++ {
			xs = append(xs, r.Float64()*total)
		}
		for _, x := range xs {
			if got, want := lowerBound(cum, x), sort.SearchFloat64s(cum, x); got != want {
				t.Fatalf("cum %v, x %v: lowerBound = %d, sort.SearchFloat64s = %d", cum, x, got, want)
			}
		}
	}
}

func BenchmarkMixtureGenerate(b *testing.B) {
	p := &Plan{Name: "bench", Fields: []Field{
		{Name: "net", Start: 0, Width: 8, Gen: Const(0x20010db8)},
		{Name: "subnet", Start: 8, Width: 8, Gen: Uniform(0, 1<<20)},
		{Name: "iid", Start: 16, Width: 16, Gen: SLAACPrivacy()},
	}}
	m := &Mixture{Name: "b", Components: []Component{{Weight: 1, Plan: p}}}
	r := rng(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 1000; j++ {
			m.One(r)
		}
	}
}

// isGloballyUniqueEUI64 reports whether the address both has the ff:fe
// EUI-64 marker and has the "u" (universal/local) bit set, i.e. claims to
// be derived from a globally unique MAC address.
func isGloballyUniqueEUI64(a ip6.Addr) bool {
	return ip6.IsEUI64(a) && a[8]&0x02 != 0
}

// embeddedDecimalIPv4 checks whether the interface identifier encodes an
// IPv4 address as base-10 octets across the four 16-bit aligned words of
// the IID (e.g. ...:192:0:2:33 for 192.0.2.33), the pattern the paper
// observes in router dataset R4. It returns the decoded IPv4 address.
func embeddedDecimalIPv4(a ip6.Addr) (uint32, bool) {
	var v uint32
	for i := 0; i < 4; i++ {
		word := uint32(a[8+2*i])<<8 | uint32(a[9+2*i])
		// Each word, read as hexadecimal text, must be a decimal number
		// 0-255. E.g. the word 0x0192 reads "192".
		var dec uint32
		for shift := 12; shift >= 0; shift -= 4 {
			d := word >> uint(shift) & 0xf
			if d > 9 {
				return 0, false
			}
			dec = dec*10 + d
		}
		if dec > 255 {
			return 0, false
		}
		v = v<<8 | dec
	}
	return v, v != 0
}
