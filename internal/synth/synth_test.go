package synth

import (
	"testing"

	"entropyip/internal/entropy"
	"entropyip/internal/ip6"
	"entropyip/internal/mra"
)

func TestCatalogComplete(t *testing.T) {
	specs := Catalog()
	if len(specs) != 19 {
		t.Fatalf("catalog has %d entries, want 19 (S1-S5, R1-R5, C1-C5, AS, AR, AC, AT)", len(specs))
	}
	want := []string{"S1", "S2", "S3", "S4", "S5", "R1", "R2", "R3", "R4", "R5",
		"C1", "C2", "C3", "C4", "C5", "AS", "AR", "AC", "AT"}
	names := Names()
	for i, w := range want {
		if names[i] != w {
			t.Errorf("catalog[%d] = %s, want %s", i, names[i], w)
		}
	}
	for _, s := range specs {
		if s.Build == nil || s.DefaultSize <= 0 || s.PaperSize <= 0 || s.Description == "" {
			t.Errorf("spec %s incomplete", s.Name)
		}
		m := s.Build(1)
		if err := m.Validate(); err != nil {
			t.Errorf("plan for %s invalid: %v", s.Name, err)
		}
	}
	if _, ok := ByName("S1"); !ok {
		t.Error("ByName(S1) failed")
	}
	if _, ok := ByName("nope"); ok {
		t.Error("ByName(nope) should fail")
	}
}

func TestKindString(t *testing.T) {
	names := map[Kind]string{Server: "server", Router: "router", Client: "client", Aggregate: "aggregate", Kind(9): "unknown"}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("%d.String() = %q", k, k.String())
		}
	}
}

func TestGenerateErrorsAndDefaults(t *testing.T) {
	if _, err := Generate("nope", 10, 1); err == nil {
		t.Error("unknown dataset should error")
	}
	addrs, err := Generate("R5", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	spec, _ := ByName("R5")
	if len(addrs) == 0 || len(addrs) > spec.DefaultSize {
		t.Errorf("default-size generation returned %d addresses", len(addrs))
	}
}

func TestGenerateUniqueAndDeterministic(t *testing.T) {
	a, err := Generate("S1", 3000, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate("S1", 3000, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 3000 || len(b) != 3000 {
		t.Fatalf("sizes: %d, %d", len(a), len(b))
	}
	set := ip6.NewSet(len(a))
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("generation is not deterministic for equal seeds")
		}
		if !set.Add(a[i]) {
			t.Fatal("duplicate address in unique generation")
		}
	}
	c, err := Generate("S1", 3000, 43)
	if err != nil {
		t.Fatal(err)
	}
	diff := 0
	for i := range a {
		if a[i] != c[i] {
			diff++
		}
	}
	if diff == 0 {
		t.Error("different seeds should give different populations")
	}
}

func gen(t *testing.T, name string, n int) []ip6.Addr {
	t.Helper()
	addrs, err := Generate(name, n, 7)
	if err != nil {
		t.Fatal(err)
	}
	return addrs
}

func TestS1Features(t *testing.T) {
	addrs := gen(t, "S1", 10000)
	// Two /32 prefixes, roughly 64/36.
	prefixes := map[ip6.Prefix]int{}
	for _, a := range addrs {
		prefixes[ip6.Prefix32(a)]++
	}
	if len(prefixes) != 2 {
		t.Fatalf("S1 should use exactly two /32s, got %d", len(prefixes))
	}
	max := 0
	for _, c := range prefixes {
		if c > max {
			max = c
		}
	}
	frac := float64(max) / float64(len(addrs))
	if frac < 0.58 || frac < 0.5 || frac > 0.72 {
		t.Errorf("dominant /32 fraction = %v, want ~0.64", frac)
	}
	// Some addresses embed IPv4 in the low 32 bits (the 127.x anonymized
	// aliases), and some have pseudo-random IIDs.
	embedded, random := 0, 0
	for _, a := range addrs {
		if v4, ok := ip6.EmbeddedIPv4(a); ok && v4>>24 == 127 {
			embedded++
		}
		if iidLooksRandom(a) {
			random++
		}
	}
	if embedded == 0 {
		t.Error("S1 should contain embedded-IPv4 aliases")
	}
	if float64(random)/float64(len(addrs)) < 0.5 {
		t.Errorf("S1 should be dominated by pseudo-random IIDs, got %v", float64(random)/float64(len(addrs)))
	}
}

func TestS3AnycastSinglePrefix(t *testing.T) {
	addrs := gen(t, "S3", 5000)
	p96 := map[ip6.Prefix]int{}
	for _, a := range addrs {
		p96[ip6.PrefixFrom(a, 96)]++
	}
	if len(p96) != 1 {
		t.Errorf("S3 should use a single /96, got %d", len(p96))
	}
}

func TestR1PointToPointIIDs(t *testing.T) {
	addrs := gen(t, "R1", 8000)
	for _, a := range addrs {
		iidHigh := a.Field(16, 15)
		last := a.Field(31, 1)
		if iidHigh != 0 || (last != 1 && last != 2) {
			t.Fatalf("R1 address %v does not end in ::1/::2 with zero IID", a)
		}
	}
	// Prefix discrimination: many distinct /64s.
	p64 := ip6.NewPrefixSet(0)
	for _, a := range addrs {
		p64.Add(ip6.Prefix64(a))
	}
	if p64.Len() < 1000 {
		t.Errorf("R1 should spread across many /64s, got %d", p64.Len())
	}
}

func TestR4DecimalEmbeddedIPv4(t *testing.T) {
	addrs := gen(t, "R4", 2000)
	ok := 0
	for _, a := range addrs {
		if _, is := embeddedDecimalIPv4(a); is {
			ok++
		}
	}
	if float64(ok)/float64(len(addrs)) < 0.95 {
		t.Errorf("R4 IIDs should encode decimal IPv4 addresses (%d/%d)", ok, len(addrs))
	}
}

func TestC1VendorPattern(t *testing.T) {
	addrs := gen(t, "C1", 20000)
	pattern := 0
	for _, a := range addrs {
		if a.Field(30, 2) == 0x01 && a.Field(16, 5) == 0 {
			pattern++
		}
	}
	frac := float64(pattern) / float64(len(addrs))
	if frac < 0.40 || frac > 0.55 {
		t.Errorf("C1 vendor-pattern fraction = %v, want ~0.47", frac)
	}
}

func TestClientPrivacyEntropyDip(t *testing.T) {
	// C5 uses standard SLAAC privacy IIDs: entropy ~1 in the low 64 bits
	// except the u-bit nybble (bits 68-72), which dips to ~0.75 — the
	// signature the paper reads off Fig. 6.
	addrs := gen(t, "C5", 20000)
	p := entropy.NewProfile(addrs)
	if p.H[17] > 0.9 {
		t.Errorf("u-bit nybble entropy = %v, want a dip below 0.9", p.H[17])
	}
	for _, i := range []int{16, 18, 20, 24, 28, 31} {
		if p.H[i] < 0.95 {
			t.Errorf("privacy IID nybble %d entropy = %v, want ~1", i, p.H[i])
		}
	}
}

func TestAggregateRouterEUI64Dip(t *testing.T) {
	// AR contains a share of EUI-64 interfaces: the ff:fe marker lowers
	// entropy at bits 88-104 (nybbles 22-25) relative to neighbours.
	addrs := gen(t, "AR", 30000)
	p := entropy.NewProfile(addrs)
	ffNybbles := (p.H[22] + p.H[23] + p.H[24] + p.H[25]) / 4
	neighbours := (p.H[20] + p.H[21] + p.H[26] + p.H[27]) / 4
	if ffNybbles >= neighbours {
		t.Errorf("AR should dip at the ff:fe nybbles: %v vs neighbours %v", ffNybbles, neighbours)
	}
	euiCount := 0
	for _, a := range addrs {
		if ip6.IsEUI64(a) {
			euiCount++
		}
	}
	if frac := float64(euiCount) / float64(len(addrs)); frac < 0.15 || frac > 0.4 {
		t.Errorf("AR EUI-64 fraction = %v, want ~0.25", frac)
	}
}

func TestAggregateServerLowerEntropyThanClients(t *testing.T) {
	// The paper's Fig. 6 headline: server addresses are the least random,
	// clients the most (especially in the low 64 bits).
	servers := gen(t, "AS", 20000)
	clients := gen(t, "AC", 20000)
	hs := entropy.NewProfile(servers).Total()
	hc := entropy.NewProfile(clients).Total()
	if hs >= hc {
		t.Errorf("H_S(AS) = %v should be well below H_S(AC) = %v", hs, hc)
	}
	// Client IID half is near-maximal entropy.
	pc := entropy.NewProfile(clients)
	low := 0.0
	for i := 16; i < 32; i++ {
		low += pc.H[i]
	}
	if low/16 < 0.9 {
		t.Errorf("AC low-64-bit mean entropy = %v, want ~1", low/16)
	}
}

func TestATHasMoreEUI64ThanAC(t *testing.T) {
	ac := gen(t, "AC", 20000)
	at := gen(t, "AT", 10000)
	frac := func(addrs []ip6.Addr) float64 {
		n := 0
		for _, a := range addrs {
			if ip6.IsEUI64(a) {
				n++
			}
		}
		return float64(n) / float64(len(addrs))
	}
	if frac(at) <= frac(ac)+0.1 {
		t.Errorf("AT EUI-64 share (%v) should clearly exceed AC's (%v)", frac(at), frac(ac))
	}
}

func TestServerACRStructure(t *testing.T) {
	// S4: only the last 32 bits discriminate hosts — ACR must be ~0 in the
	// middle of the address and positive at the top of the last 32 bits.
	addrs := gen(t, "S4", 8000)
	acr := mra.New(addrs)
	if acr.MeanACR(12, 24) > 0.05 {
		t.Errorf("S4 middle ACR = %v, want ~0", acr.MeanACR(12, 24))
	}
	if acr.MeanACR(24, 30) < 0.3 {
		t.Errorf("S4 host ACR = %v, want high", acr.MeanACR(24, 30))
	}
}

func TestAllDatasetsGenerateCleanly(t *testing.T) {
	for _, s := range Catalog() {
		addrs, err := Generate(s.Name, 1500, 3)
		if err != nil {
			t.Errorf("%s: %v", s.Name, err)
			continue
		}
		if len(addrs) < 1000 {
			t.Errorf("%s: only %d unique addresses generated", s.Name, len(addrs))
		}
		set := ip6.NewSet(len(addrs))
		for _, a := range addrs {
			if a.IsZero() {
				t.Errorf("%s generated the zero address", s.Name)
			}
			if !set.Add(a) {
				t.Errorf("%s generated duplicates", s.Name)
			}
		}
	}
}

func BenchmarkGenerateC3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Generate("C3", 10000, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// iidLooksRandom applies the heuristic used by stateless classifiers: the
// interface identifier is considered pseudo-random when its nybbles take
// many distinct values and no well-known pattern (EUI-64, low-byte,
// embedded IPv4) matches. The paper shows this heuristic misclassifies
// structured addresses; it is good enough to check a synthetic dataset's
// dominant IID style.
func iidLooksRandom(a ip6.Addr) bool {
	lowByte := true // all of the IID but its lowest two bytes is zero
	for i := 8; i < 14; i++ {
		lowByte = lowByte && a[i] == 0
	}
	if ip6.IsEUI64(a) || lowByte {
		return false
	}
	if _, ok := embeddedDecimalIPv4(a); ok {
		return false
	}
	var seen [16]bool
	distinct := 0
	for i := 16; i < 32; i++ {
		if v := a.Nybble(i); !seen[v] {
			seen[v] = true
			distinct++
		}
	}
	return distinct >= 6
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
