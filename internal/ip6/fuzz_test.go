package ip6

import (
	"net/netip"
	"strings"
	"testing"
)

// FuzzParseAddr cross-checks the parser and the append formatters: any
// input either fails identically through both entry points, or parses to
// an address whose canonical form round-trips through every formatter and
// agrees with net/netip (the oracle for RFC 4291 parsing and RFC 5952
// formatting). The seeds under testdata/fuzz/FuzzParseAddr run on every
// plain `go test`; CI adds a short coverage-guided run.
func FuzzParseAddr(f *testing.F) {
	for _, seed := range []string{
		"::", "::1", "2001:db8::1", "1:2:3:4:5:6:7:8",
		"::ffff:192.0.2.1", "::ffff:255.255.255.255", "64:ff9b::192.0.2.33",
		"20010db8000000000000000000000001", "2001:DB8::A",
		"fe80::ff:fe00:1", "1::2::3", "1:2:", "::ffff:01.2.3.4", "%", "",
		"1::2:3:4:5:6:7:8", "::1.2.3.4:1", "1:2:3:4:5:6:7:1.2.3.4", "1.2.3.4",
		"::1::", "1:2:3:4:5:6:7::", "::2:3:4:5:6:7:8", "1::1.2.3.4", "ABCD::EF",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		a, err := ParseAddr(s)
		ba, berr := ParseAddrBytes([]byte(s))
		if a != ba || (err == nil) != (berr == nil) {
			t.Fatalf("ParseAddr(%q) = (%v, %v) but ParseAddrBytes = (%v, %v)", s, a, err, ba, berr)
		}
		if err != nil && berr != nil && err.Error() != berr.Error() {
			t.Fatalf("ParseAddr(%q) error %q but ParseAddrBytes error %q", s, err, berr)
		}
		if err != nil {
			// Rejected inputs: anything netip accepts as a plain (unzoned)
			// IPv6 address must parse here too — except netip's 4-in-6
			// forms we deliberately do not add (none currently).
			if na, nerr := netip.ParseAddr(s); nerr == nil && na.Is6() && !na.Is4In6() && na.Zone() == "" {
				t.Fatalf("ParseAddr(%q) = %v but netip accepts it as %v", s, err, na)
			}
			return
		}

		// Parse ↔ append round-trip identity through every formatter.
		canon := a.String()
		if string(a.AppendString(nil)) != canon {
			t.Fatalf("AppendString(%q) = %q, String = %q", s, a.AppendString(nil), canon)
		}
		for _, form := range []string{canon, a.Hex(), a.Expanded(), string(a.AppendHex(nil)), string(a.AppendExpanded(nil))} {
			got, err := ParseAddrBytes([]byte(form))
			if err != nil {
				t.Fatalf("round trip of %q via %q: %v", s, form, err)
			}
			if got != a {
				t.Fatalf("round trip of %q via %q = %v, want %v", s, form, got, a)
			}
		}

		// netip as formatting oracle, and as parsing oracle for the colon
		// forms (the fixed-width 32-hex form is ours, netip rejects it).
		if want := netip.AddrFrom16(a.Bytes()).String(); canon != want {
			t.Fatalf("String of %q = %q, netip formats %q", s, canon, want)
		}
		if strings.IndexByte(s, ':') >= 0 {
			na, nerr := netip.ParseAddr(s)
			if nerr != nil {
				t.Fatalf("ParseAddr(%q) = %v but netip rejects it: %v", s, a, nerr)
			}
			if na.As16() != a.Bytes() {
				t.Fatalf("ParseAddr(%q) = %x, netip parses %x", s, a.Bytes(), na.As16())
			}
		}
	})
}
