package mra

import (
	"math/rand"
	"testing"

	"entropyip/internal/ip6"
)

// TestNewWorkersEquivalent asserts the sort+LCP-histogram ACR computation
// matches the distinct-prefix oracle exactly for any worker count, on both
// a spread population and a realistic skewed one (everything under a
// single /32, the shape that starves address-space partitioning schemes).
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
		for _, workers := range []int{1, 2, 4, 16, 0} {
			got := NewWorkers(addrs, workers)
			if got.N != want.N || got.Counts != want.Counts || got.ACR != want.ACR {
				t.Fatalf("%s workers=%d: series differs from the distinct-prefix oracle", name, workers)
			}
		}
	}
}

func TestNewWorkersEmpty(t *testing.T) {
	got := NewWorkers(nil, 8)
	if got.N != 0 || got.Counts[0] != 0 {
		t.Fatalf("empty series: N=%d counts[0]=%d", got.N, got.Counts[0])
	}
}
