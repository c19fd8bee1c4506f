package stats

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// checkSortByKey sorts a copy of keys with SortByKey, carrying each key's
// index along, and compares the result with a stable comparison sort of
// (key, index) pairs: equal keys must keep their input order. It then
// sorts another copy with nil values and compares the keys alone.
func checkSortByKey(t *testing.T, name string, keys []uint64) {
	t.Helper()
	type pair struct {
		key uint64
		idx int32
	}
	want := make([]pair, len(keys))
	for i, k := range keys {
		want[i] = pair{k, int32(i)}
	}
	slices.SortStableFunc(want, func(a, b pair) int { return cmp.Compare(a.key, b.key) })

	got := slices.Clone(keys)
	idx := make([]int32, len(keys))
	for i := range idx {
		idx[i] = int32(i)
	}
	SortByKey(got, idx, nil, nil)
	for i, w := range want {
		if got[i] != w.key || idx[i] != w.idx {
			t.Fatalf("%s (n=%d): position %d holds key %#x from index %d, want key %#x from index %d",
				name, len(keys), i, got[i], idx[i], w.key, w.idx)
		}
	}

	// Caller-supplied scratch, longer than the input and left dirty by
	// an earlier sort, gives the same result.
	bufKeys := make([]uint64, len(keys)+3)
	bufIdx := make([]int32, len(keys)+3)
	for i := range bufKeys {
		bufKeys[i], bufIdx[i] = ^uint64(i), -1
	}
	got = slices.Clone(keys)
	for i := range idx {
		idx[i] = int32(i)
	}
	SortByKey(got, idx, bufKeys, bufIdx)
	for i, w := range want {
		if got[i] != w.key || idx[i] != w.idx {
			t.Fatalf("%s (n=%d, supplied scratch): position %d holds key %#x from index %d, want key %#x from index %d",
				name, len(keys), i, got[i], idx[i], w.key, w.idx)
		}
	}

	bare := slices.Clone(keys)
	SortByKey[struct{}](bare, nil, nil, nil)
	for i, w := range want {
		if bare[i] != w.key {
			t.Fatalf("%s (n=%d, nil values): position %d holds key %#x, want %#x", name, len(keys), i, bare[i], w.key)
		}
	}
}

// TestSortByKey checks SortByKey against a stable comparison sort on every
// key width, on sizes from empty to the 100k of a training set, and on
// keys whose digits are all shared (every pass skipped) or differ only in
// the top byte (every pass but the last skipped). Keys are drawn from a
// small pool, so they repeat and stability shows.
func TestSortByKey(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	// draw returns n keys below 2^width from a pool of distinct ones, with
	// one key's top bit set.
	draw := func(n, width, pool int) []uint64 {
		distinct := make([]uint64, pool)
		for i := range distinct {
			distinct[i] = rng.Uint64() >> (64 - width)
		}
		distinct[0] |= 1 << (width - 1)
		out := make([]uint64, n)
		for i := range out {
			out[i] = distinct[rng.Intn(pool)]
		}
		return out
	}
	checkSortByKey(t, "nil", nil)
	checkSortByKey(t, "one", []uint64{42})
	checkSortByKey(t, "two ascending", []uint64{1, 2})
	checkSortByKey(t, "two descending", []uint64{1 << 40, 7})
	checkSortByKey(t, "two equal", []uint64{9, 9})
	checkSortByKey(t, "100k of 64 bits", draw(100_000, 64, 60_000))
	for width := 1; width <= 64; width++ {
		checkSortByKey(t, fmt.Sprintf("width %d", width), draw(1+rng.Intn(2000), width, 1+rng.Intn(300)))
	}
	for _, v := range []uint64{0, 0xff, 1 << 63, math.MaxUint64} {
		keys := make([]uint64, 1000)
		for i := range keys {
			keys[i] = v
		}
		checkSortByKey(t, fmt.Sprintf("all %#x", v), keys)
	}
	for _, top := range []int{2, 256} {
		base := rng.Uint64() &^ (0xff << 56)
		keys := make([]uint64, 1000)
		for i := range keys {
			keys[i] = base | uint64(rng.Intn(top))<<56
		}
		checkSortByKey(t, fmt.Sprintf("%d top bytes", top), keys)
	}
}
