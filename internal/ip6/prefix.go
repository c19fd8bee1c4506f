package ip6

import (
	"fmt"
	"strconv"
	"strings"
)

// Prefix is a CIDR prefix: an address and a prefix length in bits (0-128).
// The address is stored in masked (canonical) form: all bits beyond the
// prefix length are zero.
type Prefix struct {
	addr Addr
	bits int
}

// PrefixFrom returns the prefix of the given length containing addr. Bits
// beyond the prefix length are cleared. It panics if bits is outside 0-128.
func PrefixFrom(addr Addr, bits int) Prefix {
	if bits < 0 || bits > 128 {
		panic(fmt.Sprintf("ip6: invalid prefix length %d", bits))
	}
	return Prefix{addr: maskAddr(addr, bits), bits: bits}
}

// ParsePrefix parses a prefix in "addr/len" notation.
func ParsePrefix(s string) (Prefix, error) {
	i := strings.LastIndexByte(s, '/')
	if i < 0 {
		return Prefix{}, fmt.Errorf("ip6: prefix %q: missing '/'", s)
	}
	a, err := ParseAddr(s[:i])
	if err != nil {
		return Prefix{}, err
	}
	bits, err := strconv.Atoi(s[i+1:])
	if err != nil || bits < 0 || bits > 128 {
		return Prefix{}, fmt.Errorf("ip6: prefix %q: invalid length", s)
	}
	return PrefixFrom(a, bits), nil
}

// Addr returns the (masked) base address of the prefix.
func (p Prefix) Addr() Addr { return p.addr }

// Bits returns the prefix length in bits.
func (p Prefix) Bits() int { return p.bits }

// AppendString appends the canonical "addr/len" notation of the prefix to
// dst and returns the extended slice. It never allocates when dst has
// maxStringLen bytes of spare capacity.
func (p Prefix) AppendString(dst []byte) []byte {
	dst = p.addr.AppendString(dst)
	dst = append(dst, '/')
	return strconv.AppendInt(dst, int64(p.bits), 10)
}

// String returns the prefix in canonical "addr/len" notation.
func (p Prefix) String() string {
	var b [maxStringLen]byte
	return string(p.AppendString(b[:0]))
}

// Contains reports whether the prefix contains the given address.
func (p Prefix) Contains(a Addr) bool {
	return maskAddr(a, p.bits) == p.addr
}

// ContainsPrefix reports whether p contains the whole prefix q, i.e. q is
// at least as long as p and q's base address falls within p.
func (p Prefix) ContainsPrefix(q Prefix) bool {
	return q.bits >= p.bits && p.Contains(q.addr)
}

// Overlaps reports whether the two prefixes share any address.
func (p Prefix) Overlaps(q Prefix) bool {
	return p.ContainsPrefix(q) || q.ContainsPrefix(p)
}

// First returns the first (lowest) address in the prefix, which is its
// masked base address.
func (p Prefix) First() Addr { return p.addr }

// Last returns the last (highest) address in the prefix.
func (p Prefix) Last() Addr {
	a := p.addr
	for bit := p.bits; bit < 128; bit++ {
		a[bit/8] |= 1 << (7 - uint(bit%8))
	}
	return a
}

// AppendBinary appends the raw 17-byte form of the prefix — the 16-byte
// network-order base address followed by one length byte — to dst and
// returns the extended slice; the record format of the binary wire
// protocol's prefix mode. It never allocates when dst has 17 bytes of
// spare capacity.
func (p Prefix) AppendBinary(dst []byte) []byte {
	dst = append(dst, p.addr[:]...)
	return append(dst, byte(p.bits))
}

// PrefixFromBinary decodes a prefix from the first 17 bytes of b, the
// inverse of AppendBinary. ok is false when b is shorter than 17 bytes or
// the length byte exceeds 128. Address bits beyond the prefix length are
// masked off, so untrusted wire input still yields a canonical prefix.
func PrefixFromBinary(b []byte) (p Prefix, ok bool) {
	if len(b) < 17 || b[16] > 128 {
		return Prefix{}, false
	}
	a, _ := AddrFromBinary(b)
	return PrefixFrom(a, int(b[16])), true
}

// MarshalText implements encoding.TextMarshaler.
func (p Prefix) MarshalText() ([]byte, error) { return []byte(p.String()), nil }

// UnmarshalText implements encoding.TextUnmarshaler.
func (p *Prefix) UnmarshalText(text []byte) error {
	q, err := ParsePrefix(string(text))
	if err != nil {
		return err
	}
	*p = q
	return nil
}

// maskAddr clears all bits of a beyond the first bits bits.
func maskAddr(a Addr, bits int) Addr {
	if bits >= 128 {
		return a
	}
	fullBytes := bits / 8
	rem := bits % 8
	if rem != 0 {
		a[fullBytes] &= 0xff << (8 - uint(rem))
		fullBytes++
	}
	for i := fullBytes; i < 16; i++ {
		a[i] = 0
	}
	return a
}

// Mask returns addr restricted to its first bits bits (the rest zeroed).
func Mask(addr Addr, bits int) Addr {
	if bits < 0 || bits > 128 {
		panic(fmt.Sprintf("ip6: invalid mask length %d", bits))
	}
	return maskAddr(addr, bits)
}

// Prefix64 returns the /64 prefix ("subnet") containing the address. The
// /64 boundary conventionally separates the network identifier from the
// interface identifier (RFC 4291), and is the unit the paper uses when
// counting newly discovered subnets.
func Prefix64(a Addr) Prefix { return PrefixFrom(a, 64) }

// Prefix32 returns the /32 prefix containing the address; /32 is the
// smallest block Regional Internet Registries assign to operators and the
// paper's stratified-sampling unit.
func Prefix32(a Addr) Prefix { return PrefixFrom(a, 32) }
