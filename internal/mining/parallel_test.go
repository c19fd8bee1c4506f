package mining

import (
	"math/rand"
	"reflect"
	"testing"

	"entropyip/internal/entropy"
	"entropyip/internal/ip6"
	"entropyip/internal/segment"
	"entropyip/internal/stats"
	"entropyip/internal/synth"
)

// miningPopulation synthesizes addresses with popular exact values, dense
// ranges and random tails, so every mining step contributes values.
func miningPopulation(n int, seed int64) []ip6.Addr {
	rng := rand.New(rand.NewSource(seed))
	base := ip6.MustParseAddr("2001:db8::")
	addrs := make([]ip6.Addr, n)
	for i := range addrs {
		a := base
		switch rng.Intn(4) {
		case 0: // popular exact subnet
			a = a.SetField(12, 4, 0x0001)
		case 1: // dense low range
			a = a.SetField(12, 4, uint64(rng.Intn(64)))
		default: // spread
			a = a.SetField(12, 4, uint64(rng.Intn(1<<16)))
		}
		a = a.SetField(16, 16, rng.Uint64())
		addrs[i] = a
	}
	return addrs
}

// TestMineAllWorkersEquivalent checks that mining through each worker's
// reused column gives, at every worker count, the models Mine gives on a
// freshly extracted column per segment. The synthetic populations have
// segments from one nybble to 64 bits wide.
func TestMineAllWorkersEquivalent(t *testing.T) {
	names := []string{"mining", "S1", "R1", "C1"}
	populations := [][]ip6.Addr{miningPopulation(4000, 1)}
	for _, name := range names[1:] {
		addrs, err := synth.Generate(name, 10_000, 1)
		if err != nil {
			t.Fatal(err)
		}
		populations = append(populations, addrs)
	}
	for p, addrs := range populations {
		sg := segment.Segments(entropy.NewProfileWorkers(addrs, 1), segment.Config{})
		want := make([]*SegmentModel, len(sg.Segments))
		for i, s := range sg.Segments {
			values := make([]uint64, len(addrs))
			for j, a := range addrs {
				values[j] = s.Value(a)
			}
			want[i] = Mine(s, values, Config{})
		}
		for _, workers := range []int{1, 2, 5, 8, 0} {
			if got := MineAllWorkers(addrs, sg, Config{}, workers); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s, workers=%d: models differ from Mine on fresh columns", names[p], workers)
			}
		}
	}
}

func TestEncodeDistinctWorkersEquivalent(t *testing.T) {
	addrs := miningPopulation(4000, 2)
	profile := entropy.NewProfileWorkers(addrs, 1)
	sg := segment.Segments(profile, segment.Config{})
	enc := NewEncoder(MineAllWorkers(addrs, sg, Config{}, 0))
	wantRows, wantCounts := enc.EncodeDistinct(addrs, 1)
	for _, workers := range []int{3, 7, 0} {
		rows, counts := enc.EncodeDistinct(addrs, workers)
		if !reflect.DeepEqual(rows, wantRows) || !reflect.DeepEqual(counts, wantCounts) {
			t.Fatalf("workers=%d: distinct rows or counts differ from sequential encoding", workers)
		}
	}
}

// TestHistPointsSingletonsBelowLimit pins the invariant that keeps mining
// output unchanged for segments under the coarsening limit: every entry
// maps to its own point.
func TestHistPointsSingletonsBelowLimit(t *testing.T) {
	addrs := miningPopulation(500, 3)
	values := make([]uint64, len(addrs))
	for i, a := range addrs {
		values[i] = a.Field(12, 4)
	}
	entries := stats.FreqOf(values).Entries()
	hps := histPoints(entries, uniformDBSCANMaxPoints)
	if len(hps) != len(entries) {
		t.Fatalf("%d points for %d entries below limit", len(hps), len(entries))
	}
	for i, hp := range hps {
		if hp.lo != entries[i].Value || hp.hi != entries[i].Value || hp.count != entries[i].Count || hp.values != 1 {
			t.Fatalf("point %d is not a singleton of entry %d: %+v vs %+v", i, i, hp, entries[i])
		}
	}
}

// TestHistPointsCoarsensAboveLimit checks the coarse path: counts and
// distinct-value totals are preserved, runs are contiguous and ordered.
func TestHistPointsCoarsensAboveLimit(t *testing.T) {
	var entries []stats.Entry
	totalCount := 0
	for v := 0; v < 10_000; v++ {
		c := 1 + v%3
		entries = append(entries, stats.Entry{Value: uint64(v * 2), Count: c})
		totalCount += c
	}
	max := 512
	hps := histPoints(entries, max)
	if len(hps) > max {
		t.Fatalf("%d points, want <= %d", len(hps), max)
	}
	gotCount, gotValues := 0, 0
	prevHi := uint64(0)
	for i, hp := range hps {
		if hp.lo > hp.hi {
			t.Fatalf("point %d: lo > hi", i)
		}
		if i > 0 && hp.lo <= prevHi {
			t.Fatalf("point %d overlaps previous run", i)
		}
		prevHi = hp.hi
		gotCount += hp.count
		gotValues += hp.values
	}
	if gotCount != totalCount || gotValues != len(entries) {
		t.Fatalf("coarsening lost mass: count %d/%d values %d/%d", gotCount, totalCount, gotValues, len(entries))
	}
}
