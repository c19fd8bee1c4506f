package ip6

import (
	"bytes"
	"testing"
)

// TestAddrBinaryRoundTrip pins the raw 16-byte wire entry points against
// the existing byte accessors.
func TestAddrBinaryRoundTrip(t *testing.T) {
	for _, s := range []string{"::", "::1", "2001:db8::1", "ff02::fb", "::ffff:192.0.2.1"} {
		a := MustParseAddr(s)
		b := a.AppendBinary(nil)
		if len(b) != 16 {
			t.Fatalf("%s: AppendBinary wrote %d bytes", s, len(b))
		}
		raw := a.Bytes()
		if !bytes.Equal(b, raw[:]) {
			t.Fatalf("%s: AppendBinary = %x, want %x", s, b, raw)
		}
		got, ok := AddrFromBinary(b)
		if !ok || got != a {
			t.Fatalf("%s: AddrFromBinary = %v, %v", s, got, ok)
		}
		// Trailing bytes are the next record, not an error.
		got, ok = AddrFromBinary(append(b, 0xde, 0xad))
		if !ok || got != a {
			t.Fatalf("%s: AddrFromBinary with trailing bytes = %v, %v", s, got, ok)
		}
	}
	if _, ok := AddrFromBinary(make([]byte, 15)); ok {
		t.Error("AddrFromBinary accepted 15 bytes")
	}
	// AppendBinary must not allocate with spare capacity.
	a := MustParseAddr("2001:db8::1")
	dst := make([]byte, 0, 64)
	if allocs := testing.AllocsPerRun(100, func() { dst = a.AppendBinary(dst[:0]) }); allocs != 0 {
		t.Errorf("AppendBinary allocates %.1f/run", allocs)
	}
}

func TestPrefixBinaryRoundTrip(t *testing.T) {
	for _, s := range []string{"::/0", "2001:db8::/32", "2001:db8:1:2::/64", "::1/128"} {
		p := mustParsePrefix(s)
		b := p.AppendBinary(nil)
		if len(b) != 17 {
			t.Fatalf("%s: AppendBinary wrote %d bytes", s, len(b))
		}
		got, ok := PrefixFromBinary(b)
		if !ok || got != p {
			t.Fatalf("%s: PrefixFromBinary = %v, %v", s, got, ok)
		}
	}
	if _, ok := PrefixFromBinary(make([]byte, 16)); ok {
		t.Error("PrefixFromBinary accepted 16 bytes")
	}
	over := make([]byte, 17)
	over[16] = 129
	if _, ok := PrefixFromBinary(over); ok {
		t.Error("PrefixFromBinary accepted /129")
	}
	// Unmasked wire input canonicalizes instead of smuggling host bits.
	raw := MustParseAddr("2001:db8::1").AppendBinary(nil)
	raw = append(raw, 32)
	got, ok := PrefixFromBinary(raw)
	if !ok || got != mustParsePrefix("2001:db8::/32") {
		t.Errorf("unmasked input = %v, %v; want 2001:db8::/32", got, ok)
	}
}
