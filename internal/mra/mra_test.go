package mra

import (
	"math/rand"
	"testing"

	"entropyip/internal/ip6"
)

func TestNewSinglePrefix(t *testing.T) {
	// All addresses identical: every count is 1 and every ACR is 0.
	a := ip6.MustParseAddr("2001:db8::1")
	s := New([]ip6.Addr{a, a, a})
	if s.N != 3 {
		t.Errorf("N = %d", s.N)
	}
	for d := 0; d <= ip6.NybbleCount; d++ {
		if s.Counts[d] != 1 {
			t.Errorf("Counts[%d] = %d, want 1", d, s.Counts[d])
		}
	}
	for i, v := range s.ACR {
		if v != 0 {
			t.Errorf("ACR[%d] = %v, want 0", i, v)
		}
	}
}

func TestNewEmpty(t *testing.T) {
	s := New(nil)
	if s.N != 0 {
		t.Errorf("N = %d", s.N)
	}
	for _, v := range s.ACR {
		if v != 0 {
			t.Error("ACR of empty set should be all zero")
		}
	}
}

func TestACRDiscriminatingNybble(t *testing.T) {
	// 16 addresses differing only in nybble 12 (bits 48-52): ACR at that
	// nybble should be high (1 - 1/16), zero elsewhere.
	addrs := make([]ip6.Addr, 0, 16)
	base := ip6.MustParseAddr("2001:db8::1")
	for v := 0; v < 16; v++ {
		addrs = append(addrs, base.SetNybble(12, byte(v)))
	}
	s := New(addrs)
	if got, want := s.ACR[12], 1-1.0/16; got != want {
		t.Errorf("ACR[12] = %v, want %v", got, want)
	}
	for i, v := range s.ACR {
		if i != 12 && v != 0 {
			t.Errorf("ACR[%d] = %v, want 0", i, v)
		}
	}
	if s.AggregatesAt(52) != 16 || s.AggregatesAt(48) != 1 {
		t.Errorf("AggregatesAt: %d at /52, %d at /48", s.AggregatesAt(52), s.AggregatesAt(48))
	}
}

func TestACRRandomVsStructured(t *testing.T) {
	// Random IIDs inside one /64: ACR in the top half is zero; ACR in the
	// bottom half is high near the first random nybbles (each prefix splits
	// into many).
	rng := rand.New(rand.NewSource(7))
	base := ip6.MustParseAddr("2001:db8:1:2::")
	addrs := make([]ip6.Addr, 4096)
	for i := range addrs {
		addrs[i] = base.SetField(16, 16, rng.Uint64())
	}
	s := New(addrs)
	for i := 0; i < 16; i++ {
		if s.ACR[i] != 0 {
			t.Errorf("network ACR[%d] = %v, want 0", i, s.ACR[i])
		}
	}
	if s.ACR[16] < 0.9 {
		t.Errorf("ACR[16] = %v, want >= 0.9 (each /64 splits into ~16 /68s)", s.ACR[16])
	}
	// Deep nybbles have ACR near 0: by then almost every prefix is unique
	// already, so an extra nybble rarely splits aggregates.
	if s.ACR[31] > 0.2 {
		t.Errorf("ACR[31] = %v, want near 0", s.ACR[31])
	}
}

func TestACRBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	addrs := make([]ip6.Addr, 1000)
	for i := range addrs {
		var b [16]byte
		rng.Read(b[:])
		addrs[i] = ip6.AddrFrom16(b)
	}
	s := New(addrs)
	for i, v := range s.ACR {
		if v < 0 || v >= 1 {
			t.Errorf("ACR[%d] = %v out of [0,1)", i, v)
		}
	}
	// Counts are monotone non-decreasing with depth.
	for d := 1; d <= ip6.NybbleCount; d++ {
		if s.Counts[d] < s.Counts[d-1] {
			t.Errorf("Counts[%d]=%d < Counts[%d]=%d", d, s.Counts[d], d-1, s.Counts[d-1])
		}
	}
}

func TestMeanACR(t *testing.T) {
	addrs := make([]ip6.Addr, 0, 16)
	base := ip6.MustParseAddr("2001:db8::1")
	for v := 0; v < 16; v++ {
		addrs = append(addrs, base.SetNybble(12, byte(v)))
	}
	s := New(addrs)
	if got := s.MeanACR(12, 13); got != 1-1.0/16 {
		t.Errorf("MeanACR(12,13) = %v", got)
	}
	if got := s.MeanACR(0, 8); got != 0 {
		t.Errorf("MeanACR(0,8) = %v", got)
	}
	if s.MeanACR(5, 5) != 0 || s.MeanACR(-1, 0) != 0 || s.MeanACR(31, 40) != s.ACR[31] {
		t.Error("MeanACR edge cases wrong")
	}
}

func TestAggregatesAtEdges(t *testing.T) {
	s := New([]ip6.Addr{ip6.MustParseAddr("2001:db8::1")})
	if s.AggregatesAt(-4) != 0 {
		t.Error("negative bits should be 0")
	}
	if s.AggregatesAt(0) != 1 {
		t.Error("0 bits should count the root")
	}
	if s.AggregatesAt(1000) != 1 {
		t.Error("overlong bits should clamp to full length")
	}
}

// distinctPrefixCounts is the brute-force oracle for Series.Counts: for
// every depth d it collects the d-nybble prefixes of all addresses in a
// map and counts the keys.
func distinctPrefixCounts(addrs []ip6.Addr) [ip6.NybbleCount + 1]int {
	var counts [ip6.NybbleCount + 1]int
	for d := 0; d <= ip6.NybbleCount; d++ {
		seen := make(map[string]struct{})
		for _, a := range addrs {
			nyb := a.Nybbles()
			seen[string(nyb[:d])] = struct{}{}
		}
		counts[d] = len(seen)
	}
	return counts
}

func TestCountsKnownPrefixes(t *testing.T) {
	s := New([]ip6.Addr{
		ip6.MustParseAddr("2001:db8:1::1"),
		ip6.MustParseAddr("2001:db8:1::2"),
		ip6.MustParseAddr("2001:db8:2::1"),
		ip6.MustParseAddr("3001:db8::1"),
	})
	if s.N != 4 {
		t.Errorf("N = %d, want 4", s.N)
	}
	// Depth 1: "2" and "3". Depth 12 (/48): 2001:db8:1, 2001:db8:2 and
	// 3001:db8:0. Depth 32: four distinct addresses.
	for d, want := range map[int]int{0: 1, 1: 2, 12: 3, 32: 4} {
		if got := s.Counts[d]; got != want {
			t.Errorf("Counts[%d] = %d, want %d", d, got, want)
		}
	}
}

func TestCountsDuplicates(t *testing.T) {
	a := ip6.MustParseAddr("2001:db8::1")
	s := New([]ip6.Addr{a, a})
	if s.Counts[32] != 1 {
		t.Errorf("duplicate addresses should count once, got %d", s.Counts[32])
	}
	if s.N != 2 {
		t.Errorf("N = %d, want 2", s.N)
	}
}

// TestNewMatchesPrefixOracle checks the sort-based counts against the
// map-of-prefixes oracle on the shapes where an off-by-one in the LCP
// histogram would show: no addresses, one, two, just under a power of
// two, and all duplicates; on the shapes that run every radix pass of
// both halves or skip all but one; and on runs of equal high halves at
// both sides of the cutoff between the two ways New sorts a run.
func TestNewMatchesPrefixOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	random := func(n int) []ip6.Addr {
		out := make([]ip6.Addr, n)
		for i := range out {
			// A narrow top half and a few low bits, so prefixes share
			// long runs and some addresses repeat.
			out[i] = ip6.AddrFromUint64s(0x20010db8<<32|rng.Uint64()&0xff, rng.Uint64()&0x3f)
		}
		return out
	}
	// vary returns n addresses equal to base except for one byte, drawn
	// at random, at bit offset shift of the high or the low half.
	vary := func(n int, base ip6.Addr, high bool, shift int) []ip6.Addr {
		bhi, blo := base.Uint64s()
		out := make([]ip6.Addr, n)
		for i := range out {
			hi, lo := bhi, blo
			b := uint64(rng.Intn(256)) << shift
			if high {
				hi = hi&^(0xff<<shift) | b
			} else {
				lo = lo&^(0xff<<shift) | b
			}
			out[i] = ip6.AddrFromUint64s(hi, lo)
		}
		return out
	}
	full := make([]ip6.Addr, 3000)
	for i := range full {
		full[i] = ip6.AddrFromUint64s(rng.Uint64(), rng.Uint64())
	}
	dup := ip6.MustParseAddr("2001:db8::7")
	cases := map[string][]ip6.Addr{
		"n=0":       nil,
		"n=1":       random(1),
		"n=2":       random(2),
		"n=2047":    random(2047),
		"duplicate": {dup, dup, dup, dup, dup},
		// Every digit pass runs in both halves.
		"full width": full,
		// Only the last digit of lo differs: every hi pass and all but
		// one lo pass are skipped.
		"lo low byte": vary(1000, dup, false, 0),
		// Only the top digit of hi differs.
		"hi top byte": vary(1000, dup, true, 56),
	}
	// runs returns, for each length, a run of that many addresses under
	// one fresh /64, with low halves drawn from lows values (so a small
	// lows repeats addresses inside a run), shuffled so the sort has to
	// gather each run.
	runs := func(lows uint64, lengths ...int) []ip6.Addr {
		var out []ip6.Addr
		for _, n := range lengths {
			hi := rng.Uint64()
			for i := 0; i < n; i++ {
				out = append(out, ip6.AddrFromUint64s(hi, rng.Uint64()%lows))
			}
		}
		rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
		return out
	}
	cases["one /64"] = runs(1<<63, 5000)
	cases["one /64 with repeats"] = runs(300, 5000)
	cases["run lengths"] = runs(1<<63, 1, 2, shortRun, shortRun+1, 1, 2, shortRun, shortRun+1)
	cases["run lengths with repeats"] = runs(20, 1, 2, 3, shortRun, shortRun+1)
	for name, addrs := range cases {
		want := distinctPrefixCounts(addrs)
		if got := New(addrs); got.N != len(addrs) || got.Counts != want {
			t.Fatalf("%s: N=%d Counts=%v, want N=%d Counts=%v",
				name, got.N, got.Counts, len(addrs), want)
		}
	}
}

// BenchmarkACR100k times the ACR series of 100k addresses with random
// 64-bit interface identifiers under one /32.
func BenchmarkACR100k(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	addrs := make([]ip6.Addr, 100_000)
	for i := range addrs {
		addrs[i] = ip6.AddrFromUint64s(0x20010db8<<32|rng.Uint64()&0xffff, rng.Uint64())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = New(addrs)
	}
}

// BenchmarkACR100kOne64 times 100k random interface identifiers in one
// /64: a single run of equal high halves, sorted by its low halves.
func BenchmarkACR100kOne64(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	addrs := make([]ip6.Addr, 100_000)
	for i := range addrs {
		addrs[i] = ip6.AddrFromUint64s(0x20010db8<<32|0x1234, rng.Uint64())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = New(addrs)
	}
}

// BenchmarkACR100kRuns times 100k addresses spread over 1,000 /64s,
// about 100 random interface identifiers in each: a thousand runs of
// equal high halves, each a little above shortRun, so each is a radix
// sort that skips no digit. It is the slowest shape of the three.
func BenchmarkACR100kRuns(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	nets := make([]uint64, 1000)
	for i := range nets {
		nets[i] = 0x20010db8<<32 | rng.Uint64()&0xffffffff
	}
	addrs := make([]ip6.Addr, 100_000)
	for i := range addrs {
		addrs[i] = ip6.AddrFromUint64s(nets[rng.Intn(len(nets))], rng.Uint64())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = New(addrs)
	}
}

func BenchmarkNew10K(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	addrs := make([]ip6.Addr, 10000)
	base := ip6.MustParseAddr("2001:db8::")
	for i := range addrs {
		addrs[i] = base.SetField(16, 16, rng.Uint64())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = New(addrs)
	}
}

// TestFromCountsMatchesNew rebuilds series from their counts, as a saved
// model does, and gets New's series back.
func TestFromCountsMatchesNew(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, n := range []int{0, 1, 300} {
		addrs := make([]ip6.Addr, n)
		for i := range addrs {
			addrs[i] = ip6.AddrFromUint64s(0x20010db8<<32|uint64(rng.Intn(40)), uint64(rng.Intn(9)))
		}
		want := New(addrs)
		if got := FromCounts(want.N, want.Counts[:]); *got != *want {
			t.Errorf("n=%d: FromCounts = %+v, New = %+v", n, got, want)
		}
	}
}
