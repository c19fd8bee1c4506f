// Package ip6 implements the IPv6 address substrate used by Entropy/IP.
//
// The package is intentionally self-contained (it does not depend on
// net/netip) so that the rest of the system can operate directly on the
// representation the paper uses: an address as a fixed-width string of 32
// hexadecimal characters ("nybbles"), without colons. It provides parsing
// of all RFC 4291 text forms, canonical and fixed-width formatting,
// prefixes and prefix sets, address classification helpers
// (EUI-64, embedded IPv4, low-byte), and anonymization into the
// documentation prefix as done in the paper.
package ip6

import (
	"encoding/binary"
	"fmt"
	"strconv"
)

// NybbleCount is the number of hexadecimal characters (4-bit nybbles) in a
// full IPv6 address.
const NybbleCount = 32

// Addr is a 128-bit IPv6 address stored as 16 bytes in network order.
//
// The zero value is the unspecified address "::".
type Addr [16]byte

// Nybbles is an IPv6 address expressed as 32 nybble values, each in the
// range 0-15, most significant first. It corresponds to the fixed-width
// hexadecimal representation used throughout the paper (Fig. 3).
type Nybbles [NybbleCount]byte

// AddrFromBytes returns the address for the given 16 bytes.
func AddrFromBytes(b []byte) (Addr, error) {
	var a Addr
	if len(b) != 16 {
		return a, fmt.Errorf("ip6: address must be 16 bytes, got %d", len(b))
	}
	copy(a[:], b)
	return a, nil
}

// AddrFrom16 returns the address for the given 16-byte array.
func AddrFrom16(b [16]byte) Addr { return Addr(b) }

// AddrFromUint64s builds an address from its high and low 64-bit halves.
func AddrFromUint64s(hi, lo uint64) Addr {
	var a Addr
	binary.BigEndian.PutUint64(a[:8], hi)
	binary.BigEndian.PutUint64(a[8:], lo)
	return a
}

// Uint64s returns the high and low 64-bit halves of the address.
func (a Addr) Uint64s() (hi, lo uint64) {
	return binary.BigEndian.Uint64(a[:8]), binary.BigEndian.Uint64(a[8:])
}

// Bytes returns the 16-byte representation of the address.
func (a Addr) Bytes() [16]byte { return [16]byte(a) }

// IsZero reports whether a is the unspecified address "::".
func (a Addr) IsZero() bool {
	return a == Addr{}
}

// Is4In6 reports whether a is an IPv4-mapped IPv6 address (::ffff:0:0/96).
func (a Addr) Is4In6() bool {
	for i := 0; i < 10; i++ {
		if a[i] != 0 {
			return false
		}
	}
	return a[10] == 0xff && a[11] == 0xff
}

// Nybble returns the value of the i-th nybble (0-based, 0..31), most
// significant first.
func (a Addr) Nybble(i int) byte {
	b := a[i/2]
	if i%2 == 0 {
		return b >> 4
	}
	return b & 0x0f
}

// SetNybble returns a copy of the address with the i-th nybble (0-based)
// set to v (only the low 4 bits of v are used).
func (a Addr) SetNybble(i int, v byte) Addr {
	v &= 0x0f
	if i%2 == 0 {
		a[i/2] = a[i/2]&0x0f | v<<4
	} else {
		a[i/2] = a[i/2]&0xf0 | v
	}
	return a
}

// Nybbles expands the address into its 32 nybble values.
func (a Addr) Nybbles() Nybbles {
	var n Nybbles
	for i := 0; i < 16; i++ {
		n[2*i] = a[i] >> 4
		n[2*i+1] = a[i] & 0x0f
	}
	return n
}

// Addr packs 32 nybble values back into an address. Nybble values must be
// in the range 0-15; higher bits are masked off.
func (n Nybbles) Addr() Addr {
	var a Addr
	for i := 0; i < 16; i++ {
		a[i] = n[2*i]&0x0f<<4 | n[2*i+1]&0x0f
	}
	return a
}

// Append appends the nybbles as 32 lowercase hexadecimal characters to
// dst and returns the extended slice. It never allocates when dst has
// NybbleCount bytes of spare capacity.
func (n Nybbles) Append(dst []byte) []byte {
	for _, v := range n {
		dst = append(dst, hexDigit(v&0x0f))
	}
	return dst
}

// String returns the nybbles as a 32-character lowercase hexadecimal
// string, e.g. "20010db8000000000000000000000001".
func (n Nybbles) String() string {
	var b [NybbleCount]byte
	return string(n.Append(b[:0]))
}

// Field extracts nybbles [start, start+width) as an unsigned integer, most
// significant nybble first. Width must be between 0 and 16; wider fields do
// not fit in a uint64 and cause a panic, which matches the segmentation
// invariant that no segment crosses the 64-bit boundary.
func (n Nybbles) Field(start, width int) uint64 {
	if width < 0 || width > 16 || start < 0 || start+width > NybbleCount {
		panic(fmt.Sprintf("ip6: invalid nybble field [%d,%d)", start, start+width))
	}
	var v uint64
	for i := start; i < start+width; i++ {
		v = v<<4 | uint64(n[i]&0x0f)
	}
	return v
}

// SetField writes the width lowest nybbles of v into nybbles
// [start, start+width), most significant first, and returns the result.
func (n Nybbles) SetField(start, width int, v uint64) Nybbles {
	if width < 0 || width > 16 || start < 0 || start+width > NybbleCount {
		panic(fmt.Sprintf("ip6: invalid nybble field [%d,%d)", start, start+width))
	}
	for i := width - 1; i >= 0; i-- {
		n[start+i] = byte(v & 0x0f)
		v >>= 4
	}
	return n
}

// Field extracts nybbles [start, start+width) of the address as an
// unsigned integer, reading them straight from the address's two 64-bit
// halves. See Nybbles.Field for constraints; it panics on the same
// invalid fields.
func (a Addr) Field(start, width int) uint64 {
	if width < 0 || width > 16 || start < 0 || start+width > NybbleCount {
		panic(fmt.Sprintf("ip6: invalid nybble field [%d,%d)", start, start+width))
	}
	hi, lo := a.Uint64s()
	// p is the bit offset of the field's least significant bit, counted
	// from the address's least significant bit. A Go shift by 64 or more
	// yields 0, which also makes a width-0 mask 0.
	var v uint64
	if p := uint(4 * (NybbleCount - start - width)); p >= 64 {
		v = hi >> (p - 64)
	} else {
		v = lo>>p | hi<<(64-p)
	}
	return v & (^uint64(0) >> (64 - 4*uint(width)))
}

// SetField writes the width lowest nybbles of v into the address at nybble
// positions [start, start+width) and returns the result. It is the inverse
// of Addr.Field: one mask-and-or on each of the address's two 64-bit
// halves. It panics on the same invalid fields as Nybbles.SetField.
func (a Addr) SetField(start, width int, v uint64) Addr {
	if width < 0 || width > 16 || start < 0 || start+width > NybbleCount {
		panic(fmt.Sprintf("ip6: invalid nybble field [%d,%d)", start, start+width))
	}
	hi, lo := a.Uint64s()
	// m masks the field's value; p is as in Field. A shift by 64 or more
	// yields 0, so a width-0 field and the half a field misses are left
	// untouched.
	m := ^uint64(0) >> (64 - 4*uint(width))
	v &= m
	if p := uint(4 * (NybbleCount - start - width)); p >= 64 {
		hi = hi&^(m<<(p-64)) | v<<(p-64)
	} else {
		lo = lo&^(m<<p) | v<<p
		hi = hi&^(m>>(64-p)) | v>>(64-p)
	}
	return AddrFromUint64s(hi, lo)
}

// Compare returns -1, 0 or +1 depending on whether a sorts before, equal
// to, or after b in numeric (network byte) order.
func (a Addr) Compare(b Addr) int {
	for i := 0; i < 16; i++ {
		switch {
		case a[i] < b[i]:
			return -1
		case a[i] > b[i]:
			return 1
		}
	}
	return 0
}

// Less reports whether a sorts strictly before b.
func (a Addr) Less(b Addr) bool { return a.Compare(b) < 0 }

// AppendHex appends the fixed-width 32-character hexadecimal form of the
// address (no colons) to dst and returns the extended slice. It never
// allocates when dst has NybbleCount bytes of spare capacity.
func (a Addr) AppendHex(dst []byte) []byte {
	for i := 0; i < 16; i++ {
		dst = append(dst, hexDigit(a[i]>>4), hexDigit(a[i]&0x0f))
	}
	return dst
}

// Hex returns the fixed-width 32-character hexadecimal form of the address
// (no colons), as used by the paper's Fig. 3.
func (a Addr) Hex() string {
	var b [NybbleCount]byte
	return string(a.AppendHex(b[:0]))
}

// maxStringLen is the longest textual form AppendString can produce: the
// RFC 5952 mixed notation "::ffff:255.255.255.255" is 22 bytes, the pure
// hexadecimal worst case 39; 48 leaves slack for a ":" plus prefix length.
const maxStringLen = 48

// AppendString appends the canonical RFC 5952 textual representation of
// the address to dst and returns the extended slice. It never allocates
// when dst has maxStringLen bytes of spare capacity; this is the
// formatting primitive every bulk output path (NDJSON streaming, CLI
// candidate files) is built on.
func (a Addr) AppendString(dst []byte) []byte {
	// RFC 5952 §5: IPv4-mapped addresses use mixed notation.
	if a.Is4In6() {
		dst = append(dst, "::ffff:"...)
		for i := 12; i < 16; i++ {
			if i > 12 {
				dst = append(dst, '.')
			}
			dst = strconv.AppendUint(dst, uint64(a[i]), 10)
		}
		return dst
	}
	var groups [8]uint16
	for i := 0; i < 8; i++ {
		groups[i] = uint16(a[2*i])<<8 | uint16(a[2*i+1])
	}
	// Find the longest run of zero groups (length >= 2) for "::".
	bestStart, bestLen := -1, 1
	runStart, runLen := -1, 0
	for i := 0; i < 8; i++ {
		if groups[i] == 0 {
			if runStart < 0 {
				runStart, runLen = i, 1
			} else {
				runLen++
			}
			if runLen > bestLen {
				bestStart, bestLen = runStart, runLen
			}
		} else {
			runStart, runLen = -1, 0
		}
	}
	start := len(dst)
	for i := 0; i < 8; i++ {
		if bestStart >= 0 && i == bestStart {
			dst = append(dst, ':', ':')
			i += bestLen - 1
			continue
		}
		if len(dst) > start && dst[len(dst)-1] != ':' {
			dst = append(dst, ':')
		}
		dst = appendHexGroup(dst, groups[i])
	}
	return dst
}

// String returns the canonical RFC 5952 textual representation of the
// address (lowercase, zero compression of the longest run of zero groups,
// no leading zeros within groups).
func (a Addr) String() string {
	var b [maxStringLen]byte
	return string(a.AppendString(b[:0]))
}

// AppendExpanded appends the fully expanded, colon-separated form of the
// address to dst and returns the extended slice. It never allocates when
// dst has 39 bytes of spare capacity.
func (a Addr) AppendExpanded(dst []byte) []byte {
	for i := 0; i < 8; i++ {
		if i > 0 {
			dst = append(dst, ':')
		}
		dst = append(dst, hexDigit(a[2*i]>>4), hexDigit(a[2*i]&0x0f),
			hexDigit(a[2*i+1]>>4), hexDigit(a[2*i+1]&0x0f))
	}
	return dst
}

// Expanded returns the fully expanded, colon-separated form of the address,
// e.g. "2001:0db8:0000:0000:0000:0000:0000:0001".
func (a Addr) Expanded() string {
	var b [39]byte
	return string(a.AppendExpanded(b[:0]))
}

// AppendBinary appends the raw 16-byte network-order form of the address
// to dst and returns the extended slice — the record format of the binary
// wire protocol. It never allocates when dst has 16 bytes of spare
// capacity.
func (a Addr) AppendBinary(dst []byte) []byte {
	return append(dst, a[:]...)
}

// AddrFromBinary decodes an address from the first 16 bytes of b, the
// inverse of AppendBinary. ok is false when b is shorter than 16 bytes.
// Unlike AddrFromBytes it neither errors nor cares about trailing bytes,
// so frame decoders can slice records out of one payload buffer.
func AddrFromBinary(b []byte) (a Addr, ok bool) {
	if len(b) < 16 {
		return Addr{}, false
	}
	copy(a[:], b)
	return a, true
}

// MarshalText implements encoding.TextMarshaler using the canonical form.
func (a Addr) MarshalText() ([]byte, error) {
	return a.AppendString(make([]byte, 0, maxStringLen)), nil
}

// UnmarshalText implements encoding.TextUnmarshaler; it accepts any form
// accepted by ParseAddr.
func (a *Addr) UnmarshalText(text []byte) error {
	p, err := ParseAddrBytes(text)
	if err != nil {
		return err
	}
	*a = p
	return nil
}

func appendHexGroup(buf []byte, g uint16) []byte {
	started := false
	for shift := 12; shift >= 0; shift -= 4 {
		d := byte(g >> uint(shift) & 0xf)
		if d != 0 || started || shift == 0 {
			buf = append(buf, hexDigit(d))
			started = true
		}
	}
	return buf
}

func hexDigit(v byte) byte {
	if v < 10 {
		return '0' + v
	}
	return 'a' + v - 10
}
