package ip6

import (
	"encoding/binary"
	"fmt"
)

// ParseAddr parses an IPv6 address in any of the textual forms of RFC 4291
// §2.2: fully expanded groups, zero-compressed ("::"), and forms with an
// embedded dotted-quad IPv4 address in the low 32 bits. It also accepts the
// fixed-width 32-character hexadecimal form (no colons) used by the paper.
func ParseAddr(s string) (Addr, error) {
	return parseAddr(s, false)
}

// ParseAddrBytes is ParseAddr over a byte slice. It never converts the
// input to a string on the success path (errors quote the input and may
// copy it), so line-oriented readers can parse bufio slices directly. The
// input is not retained.
func ParseAddrBytes(b []byte) (Addr, error) {
	return parseAddr(b, false)
}

// ParseAddrField is ParseAddrBytes on the address at the start of b,
// which ends at the first space, tab or '/' or else at the end of b:
// what follows (a comment, a prefix length) is not read. It is
// ParseAddrBytes of b cut at that byte, in one walk instead of a scan
// for the cut and a parse of what is left.
func ParseAddrField(b []byte) (Addr, error) {
	return parseAddr(b, true)
}

// parseAddr is the parser shared by ParseAddr, ParseAddrBytes and
// ParseAddrField: one implementation, generic over the input's byte
// representation, so the entry points cannot drift apart and none pays a
// conversion copy. It walks the input once, writing each group straight
// into the result; "::" is expanded at the end by moving the groups after
// it to the tail. With field set, a space, tab or '/' where a group or
// "::" has just ended ends the walk; anywhere else, such as right after
// a single colon, it is an invalid character, as in the cut input. Error
// messages quote the whole input.
func parseAddr[T ~string | ~[]byte](s T, field bool) (Addr, error) {
	var a Addr
	if len(s) == 0 {
		return a, fmt.Errorf("ip6: empty address")
	}
	n := 0         // groups written to a
	ellipsis := -1 // group index where "::" stands
	i := 0
	if s[0] == ':' {
		if len(s) < 2 || s[1] != ':' {
			return a, fmt.Errorf("ip6: %q: address cannot start with a single colon", s)
		}
		ellipsis, i = 0, 2
	}
	for i < len(s) {
		if n == 8 {
			return a, fmt.Errorf("ip6: %q: too many groups", s)
		}
		start := i
		var g uint16
		for ; i < len(s); i++ {
			v := unhex[s[i]]
			if v == badHex {
				break
			}
			if i-start == 4 {
				if n == 0 && ellipsis < 0 {
					// Five hex digits before any colon: only the
					// fixed-width form can still match.
					return parseHex(s, field)
				}
				return a, fmt.Errorf("ip6: %q: group at offset %d has more than 4 hex digits", s, start)
			}
			g = g<<4 | uint16(v)
		}
		if i < len(s) && s[i] == '.' {
			// Embedded IPv4: the rest of the input fills the last two groups.
			if n > 6 || (ellipsis < 0 && n != 6) {
				return a, fmt.Errorf("ip6: %q: embedded IPv4 must fill the last 32 bits", s)
			}
			end := len(s)
			if field {
				end = fieldEnd(s, i)
			}
			v4, err := parseIPv4(s[start:end])
			if err != nil {
				return a, fmt.Errorf("ip6: %q: %v", s, err)
			}
			binary.BigEndian.PutUint32(a[2*n:], v4)
			n += 2
			break
		}
		if i == start {
			if field && n == ellipsis && endsField(s[i]) {
				break // the field ends right after "::"
			}
			return a, fmt.Errorf("ip6: %q: invalid character %q", s, s[i])
		}
		a[2*n], a[2*n+1] = byte(g>>8), byte(g)
		n++
		if i == len(s) {
			break
		}
		if s[i] != ':' {
			if field && endsField(s[i]) {
				break
			}
			return a, fmt.Errorf("ip6: %q: invalid character %q", s, s[i])
		}
		i++
		if i == len(s) {
			return a, fmt.Errorf("ip6: %q: trailing colon", s)
		}
		if s[i] == ':' {
			if ellipsis >= 0 {
				return a, fmt.Errorf("ip6: %q: multiple \"::\"", s)
			}
			ellipsis = n
			i++
		}
	}

	switch {
	case ellipsis < 0 && n != 8:
		return a, fmt.Errorf("ip6: %q: expected 8 groups, got %d", s, n)
	case ellipsis >= 0 && n == 8:
		return a, fmt.Errorf("ip6: %q: \"::\" must compress at least one group", s)
	case ellipsis >= 0:
		tail := 2 * (n - ellipsis)
		copy(a[16-tail:], a[2*ellipsis:2*n])
		clear(a[2*ellipsis : 16-tail])
	}
	return a, nil
}

// endsField reports whether c ends an address field: a space or tab
// before a trailing comment, or the '/' of prefix notation. All three
// sort at or below '/', below every hex digit and ':', so most bytes
// cost one comparison.
func endsField(c byte) bool {
	return c <= '/' && (c == ' ' || c == '\t' || c == '/')
}

// fieldEnd returns the index of the first byte of s at or after i that
// ends an address field, or len(s).
func fieldEnd[T ~string | ~[]byte](s T, i int) int {
	for ; i < len(s) && !endsField(s[i]); i++ {
	}
	return i
}

// badHex marks the bytes that are not hexadecimal digits in unhex.
const badHex = 0xff

// unhex maps each byte to its hexadecimal digit value, or to badHex, so
// the parsers decode and validate a character with one table load.
var unhex = func() (t [256]byte) {
	for i := range t {
		t[i] = badHex
	}
	for c := 0; c < 10; c++ {
		t['0'+c] = byte(c)
	}
	for c := 0; c < 6; c++ {
		t['a'+c] = byte(10 + c)
		t['A'+c] = byte(10 + c)
	}
	return t
}()

// MustParseAddr is like ParseAddr but panics on error. It is intended for
// tests and for package-level constants built from literals.
func MustParseAddr(s string) Addr {
	a, err := ParseAddr(s)
	if err != nil {
		panic(err)
	}
	return a
}

// parseHex parses the fixed-width 32-character hexadecimal form of an IPv6
// address (no colons), as used in the paper's Fig. 3 and by the dataset
// files in this repository. Shorter strings are rejected. With field
// set, a space, tab or '/' right after the 32 characters ends the input.
func parseHex[T ~string | ~[]byte](s T, field bool) (Addr, error) {
	var a Addr
	if field && len(s) > NybbleCount && endsField(s[NybbleCount]) {
		s = s[:NybbleCount]
	}
	if len(s) != NybbleCount {
		return a, fmt.Errorf("ip6: fixed-width form must have %d hex characters, got %d", NybbleCount, len(s))
	}
	for i := 0; i < NybbleCount; i++ {
		v := unhex[s[i]]
		if v == badHex {
			return a, fmt.Errorf("ip6: invalid hex character %q at position %d", s[i], i)
		}
		a[i/2] = a[i/2]<<4 | v
	}
	return a, nil
}

// parseIPv4 parses a dotted-quad IPv4 address that runs to the end of s
// into a uint32.
func parseIPv4[T ~string | ~[]byte](s T) (uint32, error) {
	var v uint32
	i := 0
	for octet := 0; octet < 4; octet++ {
		if octet > 0 {
			if i == len(s) {
				return 0, fmt.Errorf("embedded IPv4: expected 4 octets")
			}
			i++ // the '.' that ended the previous octet
		}
		start := i
		var o uint32
		for ; i < len(s) && s[i] != '.'; i++ {
			if c := s[i]; c < '0' || c > '9' || i-start == 3 {
				return 0, fmt.Errorf("embedded IPv4: bad octet %q", s[start:i+1])
			}
			o = o*10 + uint32(s[i]-'0')
		}
		switch {
		case i == start:
			return 0, fmt.Errorf("embedded IPv4: empty octet")
		case o > 255:
			return 0, fmt.Errorf("embedded IPv4: octet %q out of range", s[start:i])
		case s[start] == '0' && i-start > 1:
			return 0, fmt.Errorf("embedded IPv4: octet %q has leading zero", s[start:i])
		}
		v = v<<8 | o
	}
	if i != len(s) {
		return 0, fmt.Errorf("embedded IPv4: expected 4 octets")
	}
	return v, nil
}
