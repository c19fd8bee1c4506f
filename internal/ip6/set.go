package ip6

import (
	"math/bits"
	"math/rand/v2"
	"sort"
)

// Set is an unordered collection of unique IPv6 addresses.
//
// It is one flat open-addressing table of the addresses' two 64-bit
// halves: a power-of-two number of 16-byte slots, filled to at most 3/4
// and probed linearly. The all-zero slot marks an empty slot, so the
// address "::" is kept in a flag instead. Remove shifts the rest of the
// probe chain back, so the table needs no tombstones. Every set hashes
// with two random words of its own, so a set built from untrusted
// addresses cannot be driven into long probe chains by choosing them.
//
// The zero value is not ready for use; call NewSet.
type Set struct {
	slots   []slot
	shift   uint // 64 - log2(len(slots)): home takes the hash's top bits
	used    int  // occupied slots; "::" lives in hasZero, not a slot
	limit   int  // used never exceeds this, 3/4 of len(slots)
	hasZero bool
	k0, k1  uint64 // per-set hash seed
}

// slot holds one address as its two halves; the zero slot is empty.
type slot struct{ hi, lo uint64 }

// minSlots is the smallest table a set allocates.
const minSlots = 8

// NewSet returns an empty address set with room for n addresses below the
// load limit: its table is allocated once, here, and doubles only when an
// insertion would fill more than 3/4 of it.
func NewSet(n int) *Set {
	size := minSlots
	for size/4*3 < n {
		size *= 2
	}
	s := &Set{k0: rand.Uint64(), k1: rand.Uint64()}
	s.alloc(size)
	return s
}

// alloc gives the set an empty table of size slots, a power of two.
func (s *Set) alloc(size int) {
	s.slots = make([]slot, size)
	s.shift = uint(64 - bits.TrailingZeros(uint(size)))
	s.limit = size / 4 * 3
}

// home returns the slot an address hashes to. The halves, each mixed with
// a seed word, are multiplied into 128 bits and the product's two words
// folded; a Fibonacci multiply then spreads every bit of the fold into
// the top bits that pick the slot.
func (s *Set) home(hi, lo uint64) int {
	p1, p0 := bits.Mul64(hi^s.k0, lo^s.k1)
	return int(((p1 ^ p0) * 0x9e3779b97f4a7c15) >> s.shift)
}

// next returns the slot after i, wrapping at the end of the table.
func (s *Set) next(i int) int { return (i + 1) & (len(s.slots) - 1) }

// SetOf returns a set containing the given addresses (duplicates removed).
func SetOf(addrs ...Addr) *Set {
	s := NewSet(len(addrs))
	for _, a := range addrs {
		s.Add(a)
	}
	return s
}

// Add inserts the address and reports whether it was not already present.
func (s *Set) Add(a Addr) bool {
	hi, lo := a.Uint64s()
	if hi|lo == 0 {
		added := !s.hasZero
		s.hasZero = true
		return added
	}
	for i := s.home(hi, lo); ; i = s.next(i) {
		e := &s.slots[i]
		if e.hi == hi && e.lo == lo {
			return false
		}
		if e.hi|e.lo == 0 {
			if s.used == s.limit {
				s.grow()
				s.insert(hi, lo)
			} else {
				*e = slot{hi, lo}
			}
			s.used++
			return true
		}
	}
}

// insert puts an address known to be absent into its first empty slot.
func (s *Set) insert(hi, lo uint64) {
	i := s.home(hi, lo)
	for s.slots[i].hi|s.slots[i].lo != 0 {
		i = s.next(i)
	}
	s.slots[i] = slot{hi, lo}
}

// grow doubles the table and rehashes every address into it.
func (s *Set) grow() {
	old := s.slots
	s.alloc(2 * len(old))
	for _, e := range old {
		if e.hi|e.lo != 0 {
			s.insert(e.hi, e.lo)
		}
	}
}

// AddAll inserts every address in the slice and returns the number of
// addresses that were newly added.
func (s *Set) AddAll(addrs []Addr) int {
	added := 0
	for _, a := range addrs {
		if s.Add(a) {
			added++
		}
	}
	return added
}

// find returns the slot holding the nonzero address (hi, lo), or -1.
func (s *Set) find(hi, lo uint64) int {
	for i := s.home(hi, lo); ; i = s.next(i) {
		e := s.slots[i]
		if e.hi == hi && e.lo == lo {
			return i
		}
		if e.hi|e.lo == 0 {
			return -1
		}
	}
}

// Contains reports whether the address is in the set.
func (s *Set) Contains(a Addr) bool {
	hi, lo := a.Uint64s()
	if hi|lo == 0 {
		return s.hasZero
	}
	return s.find(hi, lo) >= 0
}

// Remove deletes the address and reports whether it was present.
//
// The emptied slot is refilled by shifting back the first later entry of
// the probe chain whose home slot does not lie cyclically between the
// hole and that entry, and so on until the chain ends; every remaining
// address then stays reachable from its home slot.
func (s *Set) Remove(a Addr) bool {
	hi, lo := a.Uint64s()
	if hi|lo == 0 {
		removed := s.hasZero
		s.hasZero = false
		return removed
	}
	hole := s.find(hi, lo)
	if hole < 0 {
		return false
	}
	mask := len(s.slots) - 1
	for j := s.next(hole); ; j = s.next(j) {
		e := s.slots[j]
		if e.hi|e.lo == 0 {
			break
		}
		// e may move into the hole unless its home lies in (hole, j].
		if (j-s.home(e.hi, e.lo))&mask >= (j-hole)&mask {
			s.slots[hole] = e
			hole = j
		}
	}
	s.slots[hole] = slot{}
	s.used--
	return true
}

// Len returns the number of addresses in the set.
func (s *Set) Len() int {
	if s.hasZero {
		return s.used + 1
	}
	return s.used
}

// Slice returns the addresses in the set in unspecified order.
func (s *Set) Slice() []Addr {
	out := make([]Addr, 0, s.Len())
	if s.hasZero {
		out = append(out, Addr{})
	}
	for _, e := range s.slots {
		if e.hi|e.lo != 0 {
			out = append(out, AddrFromUint64s(e.hi, e.lo))
		}
	}
	return out
}

// Sorted returns the addresses in the set in ascending numeric order.
func (s *Set) Sorted() []Addr {
	return SortAddrs(s.Slice())
}

// Prefixes returns the set of distinct prefixes of the given bit length
// covering the addresses in the set.
func (s *Set) Prefixes(bits int) *PrefixSet {
	addrs := s.Slice()
	ps := NewPrefixSet(len(addrs))
	for _, a := range addrs {
		ps.Add(PrefixFrom(a, bits))
	}
	return ps
}

// Dedup returns the unique addresses from the slice, preserving the order
// of first occurrence.
func Dedup(addrs []Addr) []Addr {
	seen := NewSet(len(addrs))
	out := make([]Addr, 0, len(addrs))
	for _, a := range addrs {
		if seen.Add(a) {
			out = append(out, a)
		}
	}
	return out
}

// SortAddrs sorts the slice of addresses in ascending numeric order,
// in place, and returns it.
func SortAddrs(addrs []Addr) []Addr {
	sort.Slice(addrs, func(i, j int) bool { return addrs[i].Less(addrs[j]) })
	return addrs
}

// PrefixSet is an unordered collection of unique prefixes.
type PrefixSet struct {
	m map[Prefix]struct{}
}

// NewPrefixSet returns an empty prefix set with capacity hint n.
func NewPrefixSet(n int) *PrefixSet {
	return &PrefixSet{m: make(map[Prefix]struct{}, n)}
}

// Add inserts the prefix and reports whether it was not already present.
func (s *PrefixSet) Add(p Prefix) bool {
	if _, ok := s.m[p]; ok {
		return false
	}
	s.m[p] = struct{}{}
	return true
}

// Contains reports whether the prefix is in the set.
func (s *PrefixSet) Contains(p Prefix) bool {
	_, ok := s.m[p]
	return ok
}

// ContainsAddr reports whether any prefix in the set of the given length
// contains the address. It is a convenience for hit-testing candidate /64s.
func (s *PrefixSet) ContainsAddr(a Addr, bits int) bool {
	return s.Contains(PrefixFrom(a, bits))
}

// Len returns the number of prefixes in the set.
func (s *PrefixSet) Len() int { return len(s.m) }

// Slice returns the prefixes in unspecified order.
func (s *PrefixSet) Slice() []Prefix {
	out := make([]Prefix, 0, len(s.m))
	for p := range s.m {
		out = append(out, p)
	}
	return out
}

// Sorted returns the prefixes sorted by base address, then by length.
func (s *PrefixSet) Sorted() []Prefix {
	out := s.Slice()
	sort.Slice(out, func(i, j int) bool {
		if c := out[i].addr.Compare(out[j].addr); c != 0 {
			return c < 0
		}
		return out[i].bits < out[j].bits
	})
	return out
}

// Diff returns the prefixes in s that are not in other.
func (s *PrefixSet) Diff(other *PrefixSet) *PrefixSet {
	out := NewPrefixSet(0)
	for p := range s.m {
		if !other.Contains(p) {
			out.Add(p)
		}
	}
	return out
}
