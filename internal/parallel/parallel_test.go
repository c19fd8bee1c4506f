package parallel

import (
	"slices"
	"sync/atomic"
	"testing"
)

func TestWorkers(t *testing.T) {
	if got := Workers(4); got != 4 {
		t.Fatalf("Workers(4) = %d", got)
	}
	if got := Workers(0); got < 1 {
		t.Fatalf("Workers(0) = %d, want >= 1", got)
	}
	if got := Workers(-3); got < 1 {
		t.Fatalf("Workers(-3) = %d, want >= 1", got)
	}
}

func TestShards(t *testing.T) {
	cases := []struct {
		n, workers int
		want       int // number of shards
	}{
		{0, 4, 0},
		{-1, 4, 0},
		{1, 4, 1},
		{4, 4, 4},
		{10, 3, 3},
		{10, 100, 10},
	}
	for _, c := range cases {
		shards := Shards(c.n, c.workers)
		if len(shards) != c.want {
			t.Fatalf("Shards(%d, %d): %d shards, want %d", c.n, c.workers, len(shards), c.want)
		}
		// Shards must tile [0, n) exactly, in order, with sizes differing
		// by at most one.
		pos, min, max := 0, c.n+1, 0
		for _, s := range shards {
			if s.Start != pos || s.End <= s.Start {
				t.Fatalf("Shards(%d, %d): bad shard %+v at pos %d", c.n, c.workers, s, pos)
			}
			if s.Len() < min {
				min = s.Len()
			}
			if s.Len() > max {
				max = s.Len()
			}
			pos = s.End
		}
		if c.n > 0 && pos != c.n {
			t.Fatalf("Shards(%d, %d): covers [0,%d)", c.n, c.workers, pos)
		}
		if len(shards) > 0 && max-min > 1 {
			t.Fatalf("Shards(%d, %d): shard sizes differ by %d", c.n, c.workers, max-min)
		}
	}
}

func TestForEachCoversAllIndices(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 64} {
		n := 1000
		var hits = make([]atomic.Int32, n)
		// busy[k] counts the calls running as worker k, which must never
		// overlap.
		busy := make([]atomic.Int32, min(workers, n))
		ForEach(workers, n, func(worker, i int) {
			if busy[worker].Add(1) != 1 {
				t.Errorf("workers=%d: two calls overlap as worker %d", workers, worker)
			}
			hits[i].Add(1)
			busy[worker].Add(-1)
		})
		for i := range hits {
			if hits[i].Load() != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, hits[i].Load())
			}
		}
	}
}

// TestMapShards checks that MapShards runs every index exactly once and
// returns the per-shard results in shard order, so a left-to-right merge
// is the same for any worker count.
func TestMapShards(t *testing.T) {
	n := 1001
	for _, workers := range []int{1, 3, 9} {
		covered := make([]atomic.Int32, n)
		got := MapShards(workers, n, func(s Shard) Shard {
			for i := s.Start; i < s.End; i++ {
				covered[i].Add(1)
			}
			return s
		})
		for i := range covered {
			if covered[i].Load() != 1 {
				t.Fatalf("workers=%d: index %d covered %d times", workers, i, covered[i].Load())
			}
		}
		if want := Shards(n, workers); !slices.Equal(got, want) {
			t.Fatalf("workers=%d: results %v, want the shards in order %v", workers, got, want)
		}
	}
	if got := MapShards(4, 0, func(s Shard) int { return 1 }); len(got) != 0 {
		t.Fatalf("empty MapShards = %v, want no results", got)
	}
}
