package dataset

import (
	"bytes"
	"net/netip"
	"strings"
	"testing"

	"entropyip/internal/ip6"
)

// parseLineCut is the line format as two steps: trim, skip blank and
// comment lines, cut at the first space, tab or '/', then parse what is
// left with the strict ip6.ParseAddrBytes. ParseLineBytes ends the
// address inside the parser's walk instead, and must agree with it on
// every line.
func parseLineCut(raw []byte) (ip6.Addr, bool, error) {
	line := bytes.TrimSpace(raw)
	if len(line) == 0 || line[0] == '#' {
		return ip6.Addr{}, false, nil
	}
	if i := bytes.IndexAny(line, " \t/"); i >= 0 {
		line = line[:i]
	}
	a, err := ip6.ParseAddrBytes(line)
	if err != nil {
		return ip6.Addr{}, false, err
	}
	return a, true, nil
}

// fieldEdges are lines where the address ends right after a byte whose
// handling depends on what follows it: a colon, "::", an embedded IPv4
// octet and the 32nd hex digit, each followed by a space or a '/'.
var fieldEdges = []struct {
	in string
	ok bool
}{
	{"0::0: 0", false},
	{"2001:db8::1:/64", false},
	{"::ffff:192.0.2.1 # c", true},
	{"::ffff:192.0.2.1/96", true},
	{"::ffff:192.0.2. 1", false},
	{"20010db8000000000000000000000001/128", true},
	{"20010db800000000000000000000000 1", false},
	{"20010db80000000000000000000000011/128", false},
	{"2001:: #c", true},
	{"::/0", true},
	{":: x", true},
	{"1:2:3:4:5:6:7:8:: x", false},
}

// FuzzParseLineBytes pins three identities on the line parser: it agrees
// with parseLineCut (same address, same ok, an error in the same cases),
// every parsed address survives a format→parse round trip through the
// append APIs, and net/netip agrees on the colon-form tokens. The seeds
// under testdata/fuzz/FuzzParseLineBytes run on every plain `go test`;
// CI adds a short coverage-guided run.
func FuzzParseLineBytes(f *testing.F) {
	for _, seed := range []string{
		"", "# comment", "   ", "2001:db8::1", "  2001:db8::1  ",
		"2001:db8::1 # trailing comment", "2001:db8::/32", "2001:db8::1/128",
		"20010db8000000000000000000000001", "::ffff:192.0.2.1",
		"2001:db8::1\ttab comment", "not-an-address", "/64", "#",
	} {
		f.Add([]byte(seed))
	}
	for _, e := range fieldEdges {
		f.Add([]byte(e.in))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		a, ok, err := ParseLineBytes(raw)
		if (err != nil) && ok {
			t.Fatalf("ParseLineBytes(%q) reported ok alongside error %v", raw, err)
		}
		ca, cok, cerr := parseLineCut(raw)
		if a != ca || ok != cok || (err != nil) != (cerr != nil) {
			t.Fatalf("ParseLineBytes(%q) = (%v, %v, %v), cut then parse gives (%v, %v, %v)",
				raw, a, ok, err, ca, cok, cerr)
		}
		if !ok {
			return
		}
		// Round trip: the canonical append form must parse back to the
		// same address, both as a bare line and with decorations the line
		// format strips.
		line := a.AppendString(make([]byte, 0, 64))
		got, gok, gerr := ParseLineBytes(line)
		if gerr != nil || !gok || got != a {
			t.Fatalf("round trip of %q via %q = (%v, %v, %v)", raw, line, got, gok, gerr)
		}
		decorated := append([]byte("  "), line...)
		decorated = append(decorated, []byte("/64 # seen live")...)
		got, gok, gerr = ParseLineBytes(decorated)
		if gerr != nil || !gok || got != a {
			t.Fatalf("decorated round trip of %q via %q = (%v, %v, %v)", raw, decorated, got, gok, gerr)
		}
		// netip as the oracle for colon-form tokens (the fixed-width
		// 32-hex dataset form is this repository's own).
		token := string(raw)
		token = strings.TrimSpace(token)
		if i := strings.IndexAny(token, " \t"); i >= 0 {
			token = token[:i]
		}
		if i := strings.IndexByte(token, '/'); i >= 0 {
			token = token[:i]
		}
		if strings.IndexByte(token, ':') >= 0 {
			na, nerr := netip.ParseAddr(token)
			if nerr != nil {
				t.Fatalf("ParseLineBytes(%q) accepted %q but netip rejects it: %v", raw, token, nerr)
			}
			if na.As16() != a.Bytes() {
				t.Fatalf("ParseLineBytes(%q) = %x, netip parses %x", raw, a.Bytes(), na.As16())
			}
		}
	})
}

// TestParseLineBytesZeroAlloc pins the ingest hot path's allocation
// contract: parsing a well-formed line from a reused buffer is
// allocation-free.
func TestParseLineBytesZeroAlloc(t *testing.T) {
	lines := [][]byte{
		[]byte("2001:db8::1"),
		[]byte("  2001:db8:0:1:1:1:1:1   # comment"),
		[]byte("20010db8000000000000000000000001"),
		[]byte("fe80::ff:fe00:1/64"),
		[]byte("# comment"),
		[]byte(""),
	}
	i := 0
	if n := testing.AllocsPerRun(200, func() {
		if _, _, err := ParseLineBytes(lines[i%len(lines)]); err != nil {
			t.Fatal(err)
		}
		i++
	}); n != 0 {
		t.Fatalf("ParseLineBytes allocates %.1f times per line, want 0", n)
	}
}

// TestParseLineBytesMatchesOldSemantics spot-checks the exact cases the
// old string implementation defined (trim, comments, prefix notation,
// tabs) so the byte rewrite cannot drift.
func TestParseLineBytesMatchesOldSemantics(t *testing.T) {
	want := ip6.MustParseAddr("2001:db8::1")
	cases := []struct {
		in  string
		ok  bool
		err bool
	}{
		{"2001:db8::1", true, false},
		{"\t 2001:db8::1 \r", true, false},
		{"2001:db8::1 trailing junk ignored", true, false},
		{"2001:db8::1/48", true, false},
		{"2001:db8::1\t# tab comment", true, false},
		{"", false, false},
		{"   ", false, false},
		{"# 2001:db8::1", false, false},
		{"nonsense", false, true},
		{"2001:db8::1garbage", false, true},
	}
	for _, c := range cases {
		a, ok, err := ParseLineBytes([]byte(c.in))
		if ok != c.ok || (err != nil) != c.err {
			t.Fatalf("ParseLineBytes(%q) = (%v, %v, %v)", c.in, a, ok, err)
		}
		if ok && a != want {
			t.Fatalf("ParseLineBytes(%q) = %v, want %v", c.in, a, want)
		}
	}
	for _, e := range fieldEdges {
		a, ok, err := ParseLineBytes([]byte(e.in))
		ca, cok, cerr := parseLineCut([]byte(e.in))
		if ok != e.ok || (err != nil) == e.ok || a != ca || ok != cok || (err != nil) != (cerr != nil) {
			t.Fatalf("ParseLineBytes(%q) = (%v, %v, %v), want ok %v; cut then parse gives (%v, %v, %v)",
				e.in, a, ok, err, e.ok, ca, cok, cerr)
		}
	}
}
