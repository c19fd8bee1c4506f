package stats

import (
	"math"
	"math/rand"
	"testing"
)

// sourceDraws exceeds three full cycles of the 607-word state, so every
// word is read after the feedback has rewritten it.
const sourceDraws = 2000

// checkSourceMatches fails unless RNG(seed), rand.New over a Source,
// draws what rand.New(rand.NewSource(seed)) draws, through the methods the
// repository uses: Uint64 and Int63 read the source directly, Float64 and
// Intn through Int63, and ExpFloat64 through Uint32's rejection loop.
func checkSourceMatches(t *testing.T, seed int64) {
	t.Helper()
	got, want := RNG(seed), rand.New(rand.NewSource(seed))
	for i := 0; i < sourceDraws; i++ {
		var g, w any
		switch i % 5 {
		case 0:
			g, w = got.Uint64(), want.Uint64()
		case 1:
			g, w = got.Int63(), want.Int63()
		case 2:
			g, w = got.Float64(), want.Float64()
		case 3:
			g, w = got.Intn(1000003), want.Intn(1000003)
		case 4:
			g, w = got.ExpFloat64(), want.ExpFloat64()
		}
		if g != w {
			t.Fatalf("seed %d draw %d: Source gives %v, math/rand %v", seed, i, g, w)
		}
	}
}

func TestSourceMatchesMathRand(t *testing.T) {
	seeds := []int64{
		0, 1, -1,
		int32max, -int32max, 2 * int32max,
		math.MinInt64, math.MaxInt64,
	}
	n := 10000
	if testing.Short() {
		n = 500
	}
	for i := 0; i < n; i++ {
		seeds = append(seeds, SplitSeed(int64(i), int64(i%64)))
	}
	for _, seed := range seeds {
		checkSourceMatches(t, seed)
	}
}

// TestSourceReseed checks that Seed fully resets a used Source.
func TestSourceReseed(t *testing.T) {
	s := new(Source)
	s.Seed(5)
	for i := 0; i < 1000; i++ {
		s.Uint64()
	}
	s.Seed(9)
	want := rand.NewSource(9).(rand.Source64)
	for i := 0; i < sourceDraws; i++ {
		if g, w := s.Uint64(), want.Uint64(); g != w {
			t.Fatalf("draw %d after reseed: %d, want %d", i, g, w)
		}
	}
}

func FuzzSourceMatchesMathRand(f *testing.F) {
	for _, seed := range []int64{0, 1, -1, int32max, 2 * int32max, math.MinInt64, math.MaxInt64} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		checkSourceMatches(t, seed)
	})
}

var splitSink *rand.Rand

// BenchmarkSplit64 measures 64 Split calls, the substream set-up of one
// parallel generate call.
func BenchmarkSplit64(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for s := int64(0); s < 64; s++ {
			splitSink = Split(int64(i), s)
		}
	}
}
