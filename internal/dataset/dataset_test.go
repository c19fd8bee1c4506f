package dataset

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"entropyip/internal/ip6"
)

func TestNewDeduplicates(t *testing.T) {
	a := ip6.MustParseAddr("2001:db8::1")
	b := ip6.MustParseAddr("2001:db8::2")
	d := New("x", []ip6.Addr{a, b, a, a})
	if d.Len() != 2 {
		t.Errorf("Len = %d", d.Len())
	}
	if !d.Set().Contains(a) || !d.Set().Contains(b) {
		t.Error("Set membership wrong")
	}
	if d.Set().Prefixes(64).Len() != 1 {
		t.Errorf("Prefixes(64) = %d", d.Set().Prefixes(64).Len())
	}
}

func TestReadVariousForms(t *testing.T) {
	input := `
# comment
2001:db8::1
2001:0db8:0000:0000:0000:0000:0000:0002
20010db8000000000000000000000003
2001:db8::4/64
2001:db8::5    # trailing comment
2001:db8::1
`
	d, err := Read("test", strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 5 {
		t.Fatalf("Len = %d, want 5", d.Len())
	}
	for i := 1; i <= 5; i++ {
		if !d.Set().Contains(ip6.MustParseAddr("2001:db8::" + string(rune('0'+i)))) {
			t.Errorf("missing ::%d", i)
		}
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read("bad", strings.NewReader("2001:db8::1\nnot-an-address\n")); err == nil {
		t.Error("expected parse error")
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	orig := New("rt", []ip6.Addr{
		ip6.MustParseAddr("2001:db8::1"),
		ip6.MustParseAddr("2001:db8:ffff::42"),
		ip6.MustParseAddr("::ffff:192.0.2.33"),
	})
	var buf bytes.Buffer
	if err := orig.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Read("rt", &buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != orig.Len() {
		t.Fatalf("round trip lost addresses: %d vs %d", back.Len(), orig.Len())
	}
	for i := range orig.Addrs {
		if back.Addrs[i] != orig.Addrs[i] {
			t.Errorf("address %d changed: %v vs %v", i, back.Addrs[i], orig.Addrs[i])
		}
	}
}

func TestFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "addrs.txt")
	d := New("file", []ip6.Addr{ip6.MustParseAddr("2001:db8::1"), ip6.MustParseAddr("2001:db8::2")})
	if err := d.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != 2 {
		t.Errorf("Len = %d", back.Len())
	}
	if _, err := LoadFile(filepath.Join(dir, "missing.txt")); err == nil {
		t.Error("missing file should error")
	}
	if err := d.SaveFile(filepath.Join(dir, "nodir", "x.txt")); err == nil {
		t.Error("unwritable path should error")
	}
	// Content is human-readable with a header.
	raw, _ := os.ReadFile(path)
	if !strings.HasPrefix(string(raw), "# dataset file: 2 unique") {
		t.Errorf("unexpected header: %q", string(raw[:40]))
	}
}
