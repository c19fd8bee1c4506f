package ip6

import "testing"

func TestIsEUI64(t *testing.T) {
	eui := MustParseAddr("2001:db8::0211:22ff:fe33:4455")
	if !IsEUI64(eui) {
		t.Error("expected EUI-64")
	}
	if !IsEUI64(MustParseAddr("2001:db8::0011:22ff:fe33:4455")) {
		t.Error("expected EUI-64 with the u bit clear")
	}
	if IsEUI64(MustParseAddr("2001:db8::1")) {
		t.Error("::1 is not EUI-64")
	}
}

func TestEmbeddedIPv4(t *testing.T) {
	a := MustParseAddr("2001:db8::c000:0221") // 192.0.2.33 packed in hex
	v, ok := EmbeddedIPv4(a)
	if !ok || v != 0xc0000221 {
		t.Errorf("EmbeddedIPv4 = %x, %v", v, ok)
	}
	if _, ok := EmbeddedIPv4(MustParseAddr("2001:db8::")); ok {
		t.Error("all-zero low 32 bits should not report embedded IPv4")
	}
}
