package ip6

import (
	"math/rand"
	"testing"
)

func TestSetBasics(t *testing.T) {
	s := NewSet(4)
	a := MustParseAddr("2001:db8::1")
	b := MustParseAddr("2001:db8::2")
	if !s.Add(a) || !s.Add(b) {
		t.Error("Add of new addresses should return true")
	}
	if s.Add(a) {
		t.Error("Add of duplicate should return false")
	}
	if s.Len() != 2 {
		t.Errorf("Len() = %d", s.Len())
	}
	if !s.Contains(a) || s.Contains(MustParseAddr("2001:db8::3")) {
		t.Error("Contains wrong")
	}
	if !s.Remove(a) || s.Remove(a) {
		t.Error("Remove semantics wrong")
	}
	if s.Len() != 1 {
		t.Errorf("Len() after remove = %d", s.Len())
	}
}

func TestSetAddAllAndSorted(t *testing.T) {
	addrs := []Addr{
		MustParseAddr("2001:db8::3"),
		MustParseAddr("2001:db8::1"),
		MustParseAddr("2001:db8::2"),
		MustParseAddr("2001:db8::1"), // duplicate
	}
	s := NewSet(0)
	if got := s.AddAll(addrs); got != 3 {
		t.Errorf("AddAll = %d, want 3", got)
	}
	sorted := s.Sorted()
	for i := 1; i < len(sorted); i++ {
		if !sorted[i-1].Less(sorted[i]) {
			t.Errorf("Sorted not ascending at %d", i)
		}
	}
	if len(s.Slice()) != 3 {
		t.Error("Slice length wrong")
	}
}

func TestSetOfAndPrefixes(t *testing.T) {
	s := SetOf(
		MustParseAddr("2001:db8:1::1"),
		MustParseAddr("2001:db8:1::2"),
		MustParseAddr("2001:db8:2::1"),
	)
	ps := s.Prefixes(48)
	if ps.Len() != 2 {
		t.Errorf("distinct /48s = %d, want 2", ps.Len())
	}
	if !ps.Contains(mustParsePrefix("2001:db8:1::/48")) {
		t.Error("missing expected /48")
	}
}

func TestDedupPreservesOrder(t *testing.T) {
	a := MustParseAddr("2001:db8::a")
	b := MustParseAddr("2001:db8::b")
	in := []Addr{b, a, b, a, b}
	out := Dedup(in)
	if len(out) != 2 || out[0] != b || out[1] != a {
		t.Errorf("Dedup = %v", out)
	}
}

func TestSortAddrs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	addrs := make([]Addr, 100)
	for i := range addrs {
		var b [16]byte
		rng.Read(b[:])
		addrs[i] = AddrFrom16(b)
	}
	SortAddrs(addrs)
	for i := 1; i < len(addrs); i++ {
		if addrs[i].Less(addrs[i-1]) {
			t.Fatalf("not sorted at %d", i)
		}
	}
}

func TestPrefixSetDiff(t *testing.T) {
	a := NewPrefixSet(0)
	b := NewPrefixSet(0)
	p1 := mustParsePrefix("2001:db8:1::/48")
	p2 := mustParsePrefix("2001:db8:2::/48")
	p3 := mustParsePrefix("2001:db8:3::/48")
	a.Add(p1)
	a.Add(p2)
	b.Add(p2)
	b.Add(p3)
	diff := a.Diff(b)
	if diff.Len() != 1 || !diff.Contains(p1) {
		t.Errorf("Diff = %v", diff.Slice())
	}
}

func TestPrefixSetSortedAndContainsAddr(t *testing.T) {
	s := NewPrefixSet(0)
	s.Add(mustParsePrefix("2001:db8:2::/48"))
	s.Add(mustParsePrefix("2001:db8:1::/48"))
	if s.Add(mustParsePrefix("2001:db8:1::/48")) {
		t.Error("duplicate Add should return false")
	}
	sorted := s.Sorted()
	if len(sorted) != 2 || sorted[0].String() != "2001:db8:1::/48" {
		t.Errorf("Sorted = %v", sorted)
	}
	if !s.ContainsAddr(MustParseAddr("2001:db8:1:2::3"), 48) {
		t.Error("ContainsAddr should be true")
	}
	if s.ContainsAddr(MustParseAddr("2001:db8:9::1"), 48) {
		t.Error("ContainsAddr should be false")
	}
}

// maxProbe returns the longest probe chain in the set's table: the most
// slots a lookup of a member examines, its distance from its home slot
// plus one.
func maxProbe(s *Set) int {
	longest := 0
	for i, e := range s.slots {
		if e.hi|e.lo != 0 {
			longest = max(longest, (i-s.home(e.hi, e.lo))&(len(s.slots)-1)+1)
		}
	}
	return longest
}

// checkSet compares the set with a reference map and checks the table's
// own invariants: every stored address is found from its home slot, no
// slot holds a duplicate, the occupancy count is right and the load stays
// at or under 3/4.
func checkSet(t testing.TB, s *Set, ref map[Addr]struct{}) {
	t.Helper()
	if s.Len() != len(ref) {
		t.Fatalf("Len() = %d, reference has %d", s.Len(), len(ref))
	}
	for a := range ref {
		if !s.Contains(a) {
			t.Fatalf("Contains(%v) = false for a member", a)
		}
	}
	got := s.Slice()
	if len(got) != len(ref) {
		t.Fatalf("Slice() has %d addresses, reference has %d", len(got), len(ref))
	}
	for _, a := range got {
		if _, ok := ref[a]; !ok {
			t.Fatalf("Slice() holds %v, not in reference", a)
		}
	}
	used := 0
	for i, e := range s.slots {
		if e.hi|e.lo == 0 {
			continue
		}
		used++
		if j := s.find(e.hi, e.lo); j != i {
			t.Fatalf("slot %d holds %v but a lookup from its home ends at %d", i, AddrFromUint64s(e.hi, e.lo), j)
		}
	}
	if used != s.used || used > len(s.slots)/4*3 {
		t.Fatalf("%d occupied slots, set counts %d, table of %d", used, s.used, len(s.slots))
	}
}

// setOp applies one operation to the set and the reference map and fails
// when their answers differ.
func setOp(t testing.TB, s *Set, ref map[Addr]struct{}, op byte, a Addr) {
	t.Helper()
	_, had := ref[a]
	switch op % 4 {
	case 0:
		if s.Add(a) == had {
			t.Fatalf("Add(%v) = %v, reference had it: %v", a, !had, had)
		}
		ref[a] = struct{}{}
	case 1:
		if s.Remove(a) != had {
			t.Fatalf("Remove(%v) = %v, reference had it: %v", a, !had, had)
		}
		delete(ref, a)
	case 2:
		if s.Contains(a) != had {
			t.Fatalf("Contains(%v) = %v, reference: %v", a, !had, had)
		}
	case 3:
		if s.Len() != len(ref) {
			t.Fatalf("Len() = %d, reference %d", s.Len(), len(ref))
		}
	}
}

// TestSetMatchesMap runs random Add, Remove, Contains and Len sequences
// against map[Addr]struct{}. Every set starts from NewSet(0), so the
// table grows through several sizes; the key pools include "::" and are
// small enough that removals keep cutting into probe chains, which wrap
// around the end of the small tables as often as not.
func TestSetMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, poolSize := range []int{4, 40, 400, 4000} {
		pool := make([]Addr, poolSize)
		for i := range pool[1:] {
			pool[i+1] = AddrFromUint64s(rng.Uint64()>>uint(rng.Intn(64)), rng.Uint64()>>uint(rng.Intn(64)))
		}
		s := NewSet(0)
		ref := make(map[Addr]struct{})
		for i := 0; i < 50*poolSize; i++ {
			// Bias towards Add so the set fills before removals dominate.
			op := byte(rng.Intn(6))
			if op >= 4 {
				op = 0
			}
			setOp(t, s, ref, op, pool[rng.Intn(poolSize)])
			if i%(5*poolSize) == 0 {
				checkSet(t, s, ref)
			}
		}
		checkSet(t, s, ref)
	}
}

// TestNewSetCapacity checks NewSet's sizing: n addresses fit without the
// table growing, the table is the smallest power of two (at least
// minSlots) that holds them at a load of 3/4, and no insertion pushes the
// load past 3/4.
func TestNewSetCapacity(t *testing.T) {
	for _, n := range []int{0, 1, 6, 7, 12, 13, 100, 1000, 3 << 10} {
		s := NewSet(n)
		size := len(s.slots)
		if size < minSlots || size&(size-1) != 0 || size/4*3 < n || (size > minSlots && size/8*3 >= n) {
			t.Fatalf("NewSet(%d): %d slots", n, size)
		}
		for i := 0; i <= n; i++ {
			s.Add(AddrFromUint64s(0x20010db800000000, uint64(i)+1))
			if i < n && len(s.slots) != size {
				t.Fatalf("NewSet(%d) grew to %d slots at %d addresses", n, len(s.slots), i+1)
			}
			if s.used > len(s.slots)/4*3 {
				t.Fatalf("NewSet(%d): %d addresses in %d slots", n, s.used, len(s.slots))
			}
		}
	}
}

// TestSetRemoveWrapAround removes the head of a probe chain that wraps
// from the last slot to the first: the entries behind it must shift back
// across the wrap, each only as far as its home slot allows.
func TestSetRemoveWrapAround(t *testing.T) {
	s := NewSet(0)
	last := len(s.slots) - 1
	var atLast, atFirst []Addr
	for i := uint64(1); len(atLast) < 3 || len(atFirst) < 2; i++ {
		a := AddrFromUint64s(0x20010db800000000, i)
		switch hi, lo := a.Uint64s(); s.home(hi, lo) {
		case last:
			atLast = append(atLast, a)
		case 0:
			atFirst = append(atFirst, a)
		}
	}
	l0, l1, l2, f0, f1 := atLast[0], atLast[1], atLast[2], atFirst[0], atFirst[1]
	ref := make(map[Addr]struct{})
	for _, a := range []Addr{l0, l1, l2, f0, f1} {
		setOp(t, s, ref, 0, a)
	}
	wantLayout(t, s, map[int]Addr{last: l0, 0: l1, 1: l2, 2: f0, 3: f1})
	steps := []struct {
		remove Addr
		layout map[int]Addr
	}{
		// l1 and l2 shift back across the wrap, f0 and f1 into their home.
		{l0, map[int]Addr{last: l1, 0: l2, 1: f0, 2: f1}},
		// f1 (home 0) fills slot 1; nothing past it moves.
		{f0, map[int]Addr{last: l1, 0: l2, 1: f1}},
		// l2 wraps back to the last slot, f1 to its home.
		{l1, map[int]Addr{last: l2, 0: f1}},
	}
	for _, st := range steps {
		setOp(t, s, ref, 1, st.remove)
		checkSet(t, s, ref)
		wantLayout(t, s, st.layout)
	}
}

// wantLayout checks that the table holds exactly the given slots.
func wantLayout(t *testing.T, s *Set, layout map[int]Addr) {
	t.Helper()
	for i, e := range s.slots {
		want := slot{}
		if a, ok := layout[i]; ok {
			want.hi, want.lo = a.Uint64s()
		}
		if e != want {
			t.Fatalf("slot %d holds %v, want %v", i, AddrFromUint64s(e.hi, e.lo), AddrFromUint64s(want.hi, want.lo))
		}
	}
}

// TestSetStructuredKeys fills sets with 2^16 addresses that differ only in
// their top 16 bits, only in their low 16 bits, or only in their /64 (one
// host per consecutive subnet) — the regular shapes real address lists
// take. The table ends half full, where random keys give a longest probe
// chain of 28 slots on average and 56 at worst over 300 sets; the
// structured families measure the same. A hash that let the structure
// through would cluster them far past the bound.
func TestSetStructuredKeys(t *testing.T) {
	const maxChain = 100
	families := []struct {
		name string
		addr func(i uint64) Addr
	}{
		{"top16", func(i uint64) Addr { return AddrFromUint64s(i<<48|0x0db8_0000_0000, 1) }},
		{"low16", func(i uint64) Addr { return AddrFromUint64s(0x20010db800000000, i) }},
		{"stride64", func(i uint64) Addr { return AddrFromUint64s(0x20010db800000000+i, 1) }},
	}
	for _, f := range families {
		for round := 0; round < 4; round++ {
			s := NewSet(0)
			for i := uint64(0); i < 1<<16; i++ {
				s.Add(f.addr(i))
			}
			if s.Len() != 1<<16 {
				t.Fatalf("%s: Len() = %d", f.name, s.Len())
			}
			if got := maxProbe(s); got > maxChain {
				t.Errorf("%s: longest probe chain %d slots, bound %d", f.name, got, maxChain)
			}
		}
	}
}

// FuzzSet decodes an operation sequence from the input, two bytes per
// operation, and applies it to a set and to map[Addr]struct{}: the first
// byte picks Add, Remove, Contains or Len and one of four address shapes,
// the second the address within the shape ("::" is in the first). The
// shapes keep the pool small, so inputs revisit addresses and removals
// land inside probe chains.
func FuzzSet(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 2, 0, 1, 0, 2, 0, 3, 0})
	f.Add([]byte{0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 0, 6, 0, 7, 1, 1, 1, 3, 2, 5, 3, 0})
	f.Add([]byte{4, 9, 8, 9, 12, 200, 16, 7, 5, 9, 9, 200, 3, 3})
	f.Fuzz(func(t *testing.T, ops []byte) {
		s := NewSet(0)
		ref := make(map[Addr]struct{})
		for len(ops) >= 2 {
			op, k := ops[0], uint64(ops[1])
			ops = ops[2:]
			var a Addr
			switch op >> 2 & 3 {
			case 0:
				a = AddrFromUint64s(0, k)
			case 1:
				a = AddrFromUint64s(k<<56, 0)
			case 2:
				a = AddrFromUint64s(0x20010db800000000+k, 1)
			case 3:
				a = AddrFromUint64s(k*0x9e3779b97f4a7c15, ^k)
			}
			setOp(t, s, ref, op, a)
		}
		checkSet(t, s, ref)
	})
}

// dedupDraws is the draw count of BenchmarkSetDedup: 3.7 per candidate
// over 1M candidates, the stream workload's attempt rate.
const dedupDraws = 3_700_000

// BenchmarkSetDedup replays generation's dedup: 3.7M draws, uniform over
// 2^20 scattered addresses (about 1.02M of them unique), each offered to
// Add on a set sized as the generator sizes it for 1M candidates.
func BenchmarkSetDedup(b *testing.B) {
	b.ReportAllocs()
	unique := 0
	for n := 0; n < b.N; n++ {
		s := NewSet(1 << 20)
		x := uint64(1)
		for i := 0; i < dedupDraws; i++ {
			x ^= x << 13 // xorshift64: the draw index
			x ^= x >> 7
			x ^= x << 17
			k := x & (1<<20 - 1)
			if s.Add(AddrFromUint64s(0x20010db800000000|k*0x9e3779b9&0xffffffff, k*0xbf58476d1ce4e5b9)) {
				unique++
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/dedupDraws, "ns/draw")
	b.ReportMetric(float64(unique)/float64(b.N), "unique")
}

// BenchmarkSetContains looks up addresses in a 2^15-entry set, half of
// them members; a lookup must not allocate.
func BenchmarkSetContains(b *testing.B) {
	const n = 1 << 15
	s := NewSet(n)
	probes := make([]Addr, 2*n)
	for i := range probes {
		probes[i] = AddrFromUint64s(0x20010db800000000|uint64(i)*0x9e3779b9&0xffffffff, uint64(i)*0xbf58476d1ce4e5b9)
		if i%2 == 0 {
			s.Add(probes[i])
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	hits := 0
	for i := 0; i < b.N; i++ {
		if s.Contains(probes[i&(2*n-1)]) {
			hits++
		}
	}
	if hits != (b.N+1)/2 {
		b.Fatalf("%d hits in %d lookups", hits, b.N)
	}
}
