package mra

import (
	"math/rand"
	"testing"

	"entropyip/internal/ip6"
)

// TestNewWorkersEquivalent asserts the sort+LCP-histogram ACR computation
// matches the distinct-prefix oracle exactly, on both a spread population
// and a realistic skewed one (everything under a single /32, the shape
// that starves address-space partitioning schemes).
func TestNewWorkersEquivalent(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	spread := make([]ip6.Addr, 20_000)
	for i := range spread {
		// Many first nybbles, low-entropy tails, duplicates.
		spread[i] = ip6.AddrFromUint64s(rng.Uint64(), rng.Uint64()&0xff)
	}
	base := ip6.MustParseAddr("2001:db8::")
	skewed := make([]ip6.Addr, 20_000)
	for i := range skewed {
		a := base
		a = a.SetField(8, 4, uint64(rng.Intn(64)))
		a = a.SetField(16, 16, rng.Uint64()&0xffffffff)
		skewed[i] = a
	}
	for name, addrs := range map[string][]ip6.Addr{"spread": spread, "skewed": skewed} {
		want := &Series{Counts: distinctPrefixCounts(addrs), N: len(addrs)}
		fillACR(want)
		if got := New(addrs); got.N != want.N || got.Counts != want.Counts || got.ACR != want.ACR {
			t.Fatalf("%s: series differs from the distinct-prefix oracle", name)
		}
	}
}

func TestNewWorkersEmpty(t *testing.T) {
	got := New(nil)
	if got.N != 0 || got.Counts[0] != 0 {
		t.Fatalf("empty series: N=%d counts[0]=%d", got.N, got.Counts[0])
	}
}
