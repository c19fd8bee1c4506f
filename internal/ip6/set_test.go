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
	if !ps.Contains(MustParsePrefix("2001:db8:1::/48")) {
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
	p1 := MustParsePrefix("2001:db8:1::/48")
	p2 := MustParsePrefix("2001:db8:2::/48")
	p3 := MustParsePrefix("2001:db8:3::/48")
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
	s.Add(MustParsePrefix("2001:db8:2::/48"))
	s.Add(MustParsePrefix("2001:db8:1::/48"))
	if s.Add(MustParsePrefix("2001:db8:1::/48")) {
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
