package ip6

import (
	"net/netip"
	"testing"
	"testing/quick"
)

func TestParsePrefix(t *testing.T) {
	p := mustParsePrefix("2001:db8::/32")
	if p.Bits() != 32 {
		t.Errorf("Bits() = %d", p.Bits())
	}
	if p.String() != "2001:db8::/32" {
		t.Errorf("String() = %q", p.String())
	}
	// Non-canonical input is masked.
	q := mustParsePrefix("2001:db8:ffff::1/32")
	if q != p {
		t.Errorf("masking failed: %v != %v", q, p)
	}
	for _, bad := range []string{"", "2001:db8::", "2001:db8::/129", "2001:db8::/-1", "2001:db8::/x", "nonsense/32"} {
		if _, err := ParsePrefix(bad); err == nil {
			t.Errorf("ParsePrefix(%q): expected error", bad)
		}
	}
}

func TestPrefixContains(t *testing.T) {
	p := mustParsePrefix("2001:db8:40::/42")
	cases := []struct {
		addr string
		want bool
	}{
		{"2001:db8:40::1", true},
		{"2001:db8:7f:ffff::1", true},
		{"2001:db8:80::", false},
		{"2001:db8:3f:ffff::", false},
		{"2001:db9:40::", false},
	}
	for _, c := range cases {
		if got := p.Contains(MustParseAddr(c.addr)); got != c.want {
			t.Errorf("%v.Contains(%s) = %v, want %v", p, c.addr, got, c.want)
		}
	}
}

func TestPrefixContainsMatchesNetip(t *testing.T) {
	f := func(b [16]byte, c [16]byte, bits uint8) bool {
		n := int(bits) % 129
		p := PrefixFrom(AddrFrom16(b), n)
		np := netip.PrefixFrom(netip.AddrFrom16(b), n).Masked()
		a := AddrFrom16(c)
		na := netip.AddrFrom16(c)
		return p.Contains(a) == np.Contains(na)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}

func TestPrefixContainsPrefixAndOverlaps(t *testing.T) {
	p32 := mustParsePrefix("2001:db8::/32")
	p48 := mustParsePrefix("2001:db8:1::/48")
	other := mustParsePrefix("2001:db9::/32")
	if !p32.ContainsPrefix(p48) {
		t.Error("/32 should contain /48")
	}
	if p48.ContainsPrefix(p32) {
		t.Error("/48 should not contain /32")
	}
	if !p32.Overlaps(p48) || !p48.Overlaps(p32) {
		t.Error("overlap expected")
	}
	if p32.Overlaps(other) {
		t.Error("no overlap expected")
	}
}

func TestPrefixFirstLast(t *testing.T) {
	p := mustParsePrefix("2001:db8::/64")
	if p.First() != MustParseAddr("2001:db8::") {
		t.Errorf("First() = %v", p.First())
	}
	if p.Last() != MustParseAddr("2001:db8::ffff:ffff:ffff:ffff") {
		t.Errorf("Last() = %v", p.Last())
	}
	all := mustParsePrefix("::/0")
	if all.Last() != MustParseAddr("ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff") {
		t.Errorf("/0 Last() = %v", all.Last())
	}
	host := PrefixFrom(MustParseAddr("2001:db8::5"), 128)
	if host.First() != host.Last() {
		t.Error("/128 first != last")
	}
}

func TestMaskMatchesNetip(t *testing.T) {
	f := func(b [16]byte, bits uint8) bool {
		n := int(bits) % 129
		got := Mask(AddrFrom16(b), n)
		want := netip.PrefixFrom(netip.AddrFrom16(b), n).Masked().Addr().As16()
		return got.Bytes() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}

func TestPrefixHelpers(t *testing.T) {
	a := MustParseAddr("2001:db8:1234:5678:9abc:def0:1122:3344")
	if Prefix64(a).String() != "2001:db8:1234:5678::/64" {
		t.Errorf("Prefix64 = %v", Prefix64(a))
	}
	if Prefix32(a).String() != "2001:db8::/32" {
		t.Errorf("Prefix32 = %v", Prefix32(a))
	}
}

func TestPrefixMarshalText(t *testing.T) {
	p := mustParsePrefix("2001:db8::/56")
	text, err := p.MarshalText()
	if err != nil {
		t.Fatal(err)
	}
	var back Prefix
	if err := back.UnmarshalText(text); err != nil {
		t.Fatal(err)
	}
	if back != p {
		t.Errorf("round trip: %v != %v", back, p)
	}
	if err := back.UnmarshalText([]byte("bad")); err == nil {
		t.Error("expected error")
	}
}

func TestPrefixFromPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	PrefixFrom(Addr{}, 200)
}

// mustParsePrefix is ParsePrefix for literals known to be valid.
func mustParsePrefix(s string) Prefix {
	p, err := ParsePrefix(s)
	if err != nil {
		panic(err)
	}
	return p
}
