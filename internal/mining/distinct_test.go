package mining

import (
	"fmt"
	"reflect"
	"testing"

	"entropyip/internal/entropy"
	"entropyip/internal/ip6"
	"entropyip/internal/parallel"
	"entropyip/internal/segment"
)

// referenceDistinct is EncodeDistinct's oracle: every address through the
// per-segment reference scan (refEncodeAddr), tallied in a map keyed by the printed
// vector, with distinct vectors listed in order of first occurrence.
func referenceDistinct(enc *Encoder, addrs []ip6.Addr) (rows [][]int, counts []int) {
	index := map[string]int{}
	for _, a := range addrs {
		vec, _ := refEncodeAddr(enc.Models, a)
		key := fmt.Sprint(vec)
		i, ok := index[key]
		if !ok {
			i = len(rows)
			index[key] = i
			rows = append(rows, vec)
			counts = append(counts, 0)
		}
		counts[i]++
	}
	return rows, counts
}

// TestEncodeDistinctMatchesReference compares EncodeDistinct with the map
// tally at several worker counts, on a population of repeated runs (every
// run longer than one address, so shard boundaries cut runs of
// duplicates) and on a mostly distinct one that grows the tables well
// past their first size.
func TestEncodeDistinctMatchesReference(t *testing.T) {
	base := buildTestSet(3000, 4)
	enc := NewEncoder(MineAllWorkers(base, segment.Segments(entropy.NewProfile(base), segment.Config{}), Config{}, 0))

	var runs []ip6.Addr
	for i := 0; len(runs) < 1000; i++ {
		for k := 0; k < 2+i%9; k++ {
			runs = append(runs, base[i%40])
		}
	}
	for _, pop := range []struct {
		name  string
		addrs []ip6.Addr
	}{{"runs", runs}, {"mostly-distinct", base}} {
		name, addrs := pop.name, pop.addrs
		wantRows, wantCounts := referenceDistinct(enc, addrs)
		for _, workers := range []int{1, 2, 3, 8} {
			if name == "runs" && workers > 1 && !cutsRun(addrs, workers) {
				t.Fatalf("workers=%d: no shard boundary falls inside a run", workers)
			}
			rows, counts := enc.EncodeDistinct(addrs, workers)
			if !reflect.DeepEqual(rows, wantRows) {
				t.Fatalf("%s, workers=%d: %d distinct rows differ from the reference's %d (or their order does)",
					name, workers, len(rows), len(wantRows))
			}
			if !reflect.DeepEqual(counts, wantCounts) {
				t.Fatalf("%s, workers=%d: counts differ from the reference", name, workers)
			}
			total := 0
			for _, c := range counts {
				total += c
			}
			if total != len(addrs) {
				t.Fatalf("%s, workers=%d: counts sum to %d, want %d", name, workers, total, len(addrs))
			}
		}
	}
}

// cutsRun reports whether some boundary between the shards EncodeDistinct
// splits addrs into falls between two equal addresses.
func cutsRun(addrs []ip6.Addr, workers int) bool {
	for _, s := range parallel.Shards(len(addrs), workers)[1:] {
		if addrs[s.Start-1] == addrs[s.Start] {
			return true
		}
	}
	return false
}

func TestEncodeDistinct(t *testing.T) {
	addrs := buildTestSet(200, 8)
	prof := entropy.NewProfile(addrs)
	sg := segment.Segments(prof, segment.Config{})
	enc := NewEncoder(MineAllWorkers(addrs, sg, Config{}, 0))
	rows, counts := enc.EncodeDistinct(addrs, 0)
	if len(rows) != len(counts) || len(rows) == 0 || len(rows) > len(addrs) {
		t.Fatalf("%d rows, %d counts for %d addresses", len(rows), len(counts), len(addrs))
	}
	for _, r := range rows {
		if len(r) != len(enc.Models) || cap(r) != len(r) {
			t.Fatal("row width wrong")
		}
	}
	if rows, counts := enc.EncodeDistinct(nil, 4); len(rows) != 0 || len(counts) != 0 {
		t.Fatalf("no addresses: %d rows, %d counts", len(rows), len(counts))
	}
}

// TestTallyConfirmsCollisions forces every vector onto one hash: the
// tally must still tell them apart by their codes, including across the
// index's growth, and count a row again after its count fell to zero.
func TestTallyConfirmsCollisions(t *testing.T) {
	tl := newTally(2, 0)
	clear(tl.keys) // every vector hashes alike
	for round := 0; round < 2; round++ {
		for v := 0; v < 100; v++ {
			if r := tl.add([]int32{int32(v), int32(v % 7)}, 1); r != v {
				t.Fatalf("vector %d: row %d, want %d", v, r, v)
			}
		}
	}
	if tl.len() != 100 {
		t.Fatalf("%d distinct vectors, want 100", tl.len())
	}
	for v := 0; v < tl.len(); v++ {
		if c := tl.counts[v]; c != 2 || !reflect.DeepEqual(tl.row(v), []int32{int32(v), int32(v % 7)}) {
			t.Fatalf("vector %d: row %v count %d, want [%d %d] twice", v, tl.row(v), c, v, v%7)
		}
	}
	if r := tl.add([]int32{5, 5}, -2); r != 5 || tl.counts[5] != 0 {
		t.Fatalf("taking two counts off: row %d count %d, want row 5 count 0", r, tl.counts[5])
	}
	if r := tl.add([]int32{5, 5}, 3); r != 5 || tl.counts[5] != 3 || tl.len() != 100 {
		t.Fatalf("returning vector: row %d count %d of %d rows, want row 5 count 3 of 100", r, tl.counts[5], tl.len())
	}
}
