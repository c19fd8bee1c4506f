package ip6

// This file contains the "stateless" single-address tests, of the kind
// implemented by the addr6 tool referenced by the paper, that the baseline
// generators use. The paper argues such rules are error-prone in isolation
// (context matters).

// IsEUI64 reports whether the interface identifier (low 64 bits) looks like
// a Modified EUI-64 derived from a MAC address: the bytes 0xff, 0xfe appear
// in positions 11-12 (bits 88-104 of the address).
func IsEUI64(a Addr) bool {
	return a[11] == 0xff && a[12] == 0xfe
}

// EmbeddedIPv4 checks whether the low 32 bits of the address decode to a
// plausible embedded IPv4 address (dotted-quad packed in hexadecimal, as in
// ::ffff:a.b.c.d or provider transition schemes). It returns the packed
// IPv4 value. Plausibility here means only that the address is not
// overwhelmingly zero; semantic checks are left to callers.
func EmbeddedIPv4(a Addr) (uint32, bool) {
	v := uint32(a[12])<<24 | uint32(a[13])<<16 | uint32(a[14])<<8 | uint32(a[15])
	if v == 0 {
		return 0, false
	}
	return v, true
}
