package ip6

import (
	"math/rand"
	"net/netip"
	"testing"
	"testing/quick"
)

func TestParseAddrCanonicalForms(t *testing.T) {
	cases := []struct {
		in   string
		want string // canonical String() output
	}{
		{"::", "::"},
		{"::1", "::1"},
		{"1::", "1::"},
		{"2001:db8::1", "2001:db8::1"},
		{"2001:0db8:0000:0000:0000:0000:0000:0001", "2001:db8::1"},
		{"2001:DB8::A", "2001:db8::a"},
		{"fe80::1%", ""}, // zone not supported
		{"2001:db8:0:0:1:0:0:1", "2001:db8::1:0:0:1"},
		{"2001:db8::1:0:0:1", "2001:db8::1:0:0:1"},
		{"::ffff:192.0.2.33", "::ffff:192.0.2.33"},
		{"64:ff9b::192.0.2.1", "64:ff9b::c000:201"},
		{"1:2:3:4:5:6:7:8", "1:2:3:4:5:6:7:8"},
		{"0:0:0:0:0:0:0:0", "::"},
		{"2001:db8::0:1", "2001:db8::1"},
		{"20010db8000000000000000000000001", "2001:db8::1"},
	}
	for _, c := range cases {
		got, err := ParseAddr(c.in)
		if c.want == "" {
			if err == nil {
				t.Errorf("ParseAddr(%q): expected error, got %v", c.in, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseAddr(%q): unexpected error: %v", c.in, err)
			continue
		}
		if got.String() != c.want {
			t.Errorf("ParseAddr(%q).String() = %q, want %q", c.in, got.String(), c.want)
		}
	}
}

func TestParseAddrRejectsMalformed(t *testing.T) {
	bad := []string{
		"",
		":",
		":::",
		"1::2::3",
		"1:2:3:4:5:6:7",
		"1:2:3:4:5:6:7:8:9",
		"12345::",
		"g::1",
		"1:2:3:4:5:6:7:8::",
		"::1:2:3:4:5:6:7:8",
		"1:2:3:4:5:6:1.2.3.4.5",
		"1:2:3:4:5:6:1.2.3",
		"1:2:3:4:5:6:256.1.1.1",
		"1:2:3:4:5:6:01.1.1.1",
		"2001:db8::1:",
		"20010db80000000000000000000001",     // 30 chars
		"20010db8000000000000000000000001ff", // 34 chars
		"20010db800000000000000000000000g",   // bad hex
		"1::2:3:4:5:6:7:8",
		"::1.2.3.4:1",
		"1:2:3:4:5:6:7:1.2.3.4",
		"1.2.3.4",
		"::1::",
		// A space or '/' ends an address only for ParseAddrField.
		"2001:db8::1 ",
		"2001:db8::1/64",
	}
	for _, s := range bad {
		if a, err := ParseAddr(s); err == nil {
			t.Errorf("ParseAddr(%q): expected error, got %v", s, a)
		}
	}
}

func TestParseAddrMatchesNetip(t *testing.T) {
	// Cross-check a variety of valid forms against the standard library.
	cases := []string{
		"::", "::1", "1::", "2001:db8::1", "fe80::dead:beef",
		"2001:db8:221:ffff:ffff:ffff:ffc0:122a",
		"::ffff:10.1.2.3", "1:2:3:4:5:6:7:8", "abcd:ef01:2345:6789:abcd:ef01:2345:6789",
		"2001:db8:0:0:8:800:200c:417a",
		"1:2:3:4:5:6:7::", "::2:3:4:5:6:7:8", "1::1.2.3.4", "ABCD::EF",
	}
	for _, s := range cases {
		got, err := ParseAddr(s)
		if err != nil {
			t.Fatalf("ParseAddr(%q): %v", s, err)
		}
		want := netip.MustParseAddr(s)
		if got.Bytes() != want.As16() {
			t.Errorf("ParseAddr(%q) = %x, netip = %x", s, got.Bytes(), want.As16())
		}
		if got.String() != want.String() {
			t.Errorf("String mismatch for %q: got %q, netip %q", s, got.String(), want.String())
		}
	}
}

func TestStringMatchesNetipProperty(t *testing.T) {
	// Property: for arbitrary 16-byte values, our canonical form equals
	// netip's canonical form and round-trips through ParseAddr.
	f := func(b [16]byte) bool {
		a := AddrFrom16(b)
		n := netip.AddrFrom16(b)
		if a.String() != n.String() {
			t.Logf("canonical mismatch: %q vs %q", a.String(), n.String())
			return false
		}
		back, err := ParseAddr(a.String())
		return err == nil && back == a
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestHexRoundTripProperty(t *testing.T) {
	f := func(b [16]byte) bool {
		a := AddrFrom16(b)
		back, err := ParseAddr(a.Hex())
		return err == nil && back == a
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestExpanded(t *testing.T) {
	a := MustParseAddr("2001:db8::1")
	if got, want := a.Expanded(), "2001:0db8:0000:0000:0000:0000:0000:0001"; got != want {
		t.Errorf("Expanded() = %q, want %q", got, want)
	}
	if len(a.Hex()) != 32 {
		t.Errorf("Hex() length = %d, want 32", len(a.Hex()))
	}
	if got, want := a.Hex(), "20010db8000000000000000000000001"; got != want {
		t.Errorf("Hex() = %q, want %q", got, want)
	}
}

func TestNybbleAccessors(t *testing.T) {
	a := MustParseAddr("2001:db8::1")
	wantFirst := []byte{2, 0, 0, 1, 0, 0xd, 0xb, 8}
	for i, w := range wantFirst {
		if got := a.Nybble(i); got != w {
			t.Errorf("Nybble(%d) = %x, want %x", i, got, w)
		}
	}
	if got := a.Nybble(31); got != 1 {
		t.Errorf("Nybble(31) = %x, want 1", got)
	}
	b := a.SetNybble(0, 3)
	if b.String() != "3001:db8::1" {
		t.Errorf("SetNybble(0,3) = %v", b)
	}
	if a.String() != "2001:db8::1" {
		t.Errorf("SetNybble mutated receiver: %v", a)
	}
}

func TestNybblesRoundTripProperty(t *testing.T) {
	f := func(b [16]byte) bool {
		a := AddrFrom16(b)
		return a.Nybbles().Addr() == a
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestFieldAccessors(t *testing.T) {
	a := MustParseAddr("2001:db8:1234:5678:9abc:def0:1122:3344")
	if got := a.Field(0, 8); got != 0x20010db8 {
		t.Errorf("Field(0,8) = %x", got)
	}
	if got := a.Field(8, 4); got != 0x1234 {
		t.Errorf("Field(8,4) = %x", got)
	}
	if got := a.Field(16, 16); got != 0x9abcdef011223344 {
		t.Errorf("Field(16,16) = %x", got)
	}
	b := a.SetField(8, 4, 0xffff)
	if got := b.Field(8, 4); got != 0xffff {
		t.Errorf("SetField/Field = %x", got)
	}
	// Unchanged elsewhere.
	if b.Field(0, 8) != 0x20010db8 || b.Field(12, 4) != 0x5678 {
		t.Errorf("SetField modified other nybbles: %v", b)
	}
}

// TestFieldMatchesNybbles checks the halves-based Addr.Field against the
// nybble-expansion Nybbles.Field for every field of width 1..16: fields
// inside either half, fields straddling bit 64, and width-16 fields, on
// random addresses plus the all-zero and all-ones ones.
func TestFieldMatchesNybbles(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	addrs := []Addr{{}, AddrFromUint64s(^uint64(0), ^uint64(0))}
	for i := 0; i < 50; i++ {
		var a Addr
		rng.Read(a[:])
		addrs = append(addrs, a)
	}
	for _, a := range addrs {
		n := a.Nybbles()
		for width := 1; width <= 16; width++ {
			for start := 0; start+width <= NybbleCount; start++ {
				if got, want := a.Field(start, width), n.Field(start, width); got != want {
					t.Fatalf("%v: Field(%d,%d) = %x, Nybbles().Field %x", a, start, width, got, want)
				}
			}
		}
	}
}

// TestSetFieldMatchesNybbles checks the halves-based Addr.SetField
// against the nybble round trip Nybbles().SetField(...).Addr() for every
// start and every width from 0 to 16: fields inside either half, fields
// straddling bit 64, and values carrying bits above the field's width, on
// random addresses plus the all-zero and all-ones ones.
func TestSetFieldMatchesNybbles(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	addrs := []Addr{{}, AddrFromUint64s(^uint64(0), ^uint64(0))}
	for i := 0; i < 50; i++ {
		var a Addr
		rng.Read(a[:])
		addrs = append(addrs, a)
	}
	for _, a := range addrs {
		for _, v := range []uint64{0, ^uint64(0), 0x0123456789abcdef, rng.Uint64()} {
			for width := 0; width <= 16; width++ {
				for start := 0; start+width <= NybbleCount; start++ {
					got := a.SetField(start, width, v)
					if want := a.Nybbles().SetField(start, width, v).Addr(); got != want {
						t.Fatalf("%v: SetField(%d,%d,%x) = %v, Nybbles().SetField %v", a, start, width, v, got, want)
					}
				}
			}
		}
	}
}

// TestFieldPanicsLikeNybbles checks that Addr.Field and Addr.SetField
// reject exactly the fields Nybbles.Field and Nybbles.SetField reject.
func TestFieldPanicsLikeNybbles(t *testing.T) {
	panics := func(f func()) (p bool) {
		defer func() { p = recover() != nil }()
		f()
		return false
	}
	a := MustParseAddr("2001:db8::1")
	for _, c := range []struct{ start, width int }{
		{0, 17}, {0, -1}, {-1, 4}, {17, 16}, {31, 2}, {32, 1}, {32, 0}, {0, 0}, {16, 16},
	} {
		got := panics(func() { a.Field(c.start, c.width) })
		want := panics(func() { a.Nybbles().Field(c.start, c.width) })
		if got != want {
			t.Errorf("Field(%d,%d) panics = %v, Nybbles().Field panics = %v", c.start, c.width, got, want)
		}
		got = panics(func() { a.SetField(c.start, c.width, 1) })
		want = panics(func() { a.Nybbles().SetField(c.start, c.width, 1) })
		if got != want {
			t.Errorf("SetField(%d,%d) panics = %v, Nybbles().SetField panics = %v", c.start, c.width, got, want)
		}
	}
}

func TestFieldPanicsOnBadRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for width > 16")
		}
	}()
	var a Addr
	a.Field(0, 17)
}

func TestFieldSetFieldRoundTripProperty(t *testing.T) {
	f := func(b [16]byte, start, width uint8, v uint64) bool {
		s := int(start) % 17
		w := int(width) % 17
		if s+w > NybbleCount {
			w = NybbleCount - s
		}
		a := AddrFrom16(b)
		mask := uint64(0)
		if w > 0 {
			if w == 16 {
				mask = ^uint64(0)
			} else {
				mask = (uint64(1) << (4 * uint(w))) - 1
			}
		}
		got := a.SetField(s, w, v).Field(s, w)
		return got == v&mask
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestUint64Halves(t *testing.T) {
	a := MustParseAddr("2001:db8:1234:5678:9abc:def0:1122:3344")
	hi, lo := a.Uint64s()
	if hi != 0x20010db812345678 || lo != 0x9abcdef011223344 {
		t.Errorf("Uint64s() = %x, %x", hi, lo)
	}
	if AddrFromUint64s(hi, lo) != a {
		t.Errorf("AddrFromUint64s round trip failed")
	}
}

func TestCompareAndLess(t *testing.T) {
	a := MustParseAddr("2001:db8::1")
	b := MustParseAddr("2001:db8::2")
	if !(a.Less(b) && !b.Less(a) && !a.Less(a)) {
		t.Error("Less ordering wrong")
	}
	if a.Compare(b) != -1 || b.Compare(a) != 1 || a.Compare(a) != 0 {
		t.Error("Compare wrong")
	}
}

func TestMarshalText(t *testing.T) {
	a := MustParseAddr("2001:db8::42")
	text, err := a.MarshalText()
	if err != nil {
		t.Fatal(err)
	}
	var back Addr
	if err := back.UnmarshalText(text); err != nil {
		t.Fatal(err)
	}
	if back != a {
		t.Errorf("text round trip: %v != %v", back, a)
	}
	if err := back.UnmarshalText([]byte("nonsense")); err == nil {
		t.Error("expected error unmarshaling nonsense")
	}
}

func TestAddrFromBytes(t *testing.T) {
	if _, err := AddrFromBytes(make([]byte, 15)); err == nil {
		t.Error("expected error for 15 bytes")
	}
	b := make([]byte, 16)
	b[15] = 1
	a, err := AddrFromBytes(b)
	if err != nil {
		t.Fatal(err)
	}
	if a.String() != "::1" {
		t.Errorf("got %v", a)
	}
}

func TestIsZero(t *testing.T) {
	var a Addr
	if !a.IsZero() {
		t.Error("zero Addr should be IsZero")
	}
	if MustParseAddr("::1").IsZero() {
		t.Error("::1 should not be IsZero")
	}
}

func BenchmarkParseAddr(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := ParseAddr("2001:db8:221:ffff:ffff:ffff:ffc0:122a"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAddrString(b *testing.B) {
	a := MustParseAddr("2001:db8:221:ffff:ffff:ffff:ffc0:122a")
	for i := 0; i < b.N; i++ {
		_ = a.String()
	}
}

func BenchmarkNybbles(b *testing.B) {
	a := MustParseAddr("2001:db8:221:ffff:ffff:ffff:ffc0:122a")
	for i := 0; i < b.N; i++ {
		_ = a.Nybbles()
	}
}
