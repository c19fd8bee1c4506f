package stats

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func almostEqual(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestFreqBasics(t *testing.T) {
	f := FreqOf(nil)
	if f.Total() != 0 || f.Distinct() != 0 || len(f.Entries()) != 0 {
		t.Error("empty table should have zero totals")
	}
	f = FreqOf([]uint64{9, 5, 7, 9, 5, 9})
	if f.Total() != 6 {
		t.Errorf("Total = %d", f.Total())
	}
	if f.Distinct() != 3 {
		t.Errorf("Distinct = %d", f.Distinct())
	}
	want := []Entry{{5, 2}, {7, 1}, {9, 3}}
	if got := f.Entries(); !slices.Equal(got, want) {
		t.Errorf("Entries = %v, want %v", got, want)
	}
}

func TestFreqRemoveAndRanges(t *testing.T) {
	f := FreqOf([]uint64{1, 2, 2, 3, 3, 3, 10})
	if f.Remove(2) != 2 {
		t.Error("Remove(2) should return 2")
	}
	if f.Remove(2) != 0 {
		t.Error("second Remove(2) should return 0")
	}
	if f.Total() != 5 {
		t.Errorf("Total after remove = %d", f.Total())
	}
	if got := f.RemoveRange(3, 10); got != 4 {
		t.Errorf("RemoveRange(3,10) = %d", got)
	}
	if f.Total() != 1 || f.Distinct() != 1 {
		t.Errorf("after RemoveRange: total=%d distinct=%d", f.Total(), f.Distinct())
	}
}

func TestFreqMinMaxEntriesTopK(t *testing.T) {
	f := FreqOf([]uint64{8, 8, 8, 1, 1, 4})
	mn, ok := f.Min()
	if !ok || mn != 1 {
		t.Errorf("Min = %d, %v", mn, ok)
	}
	mx, ok := f.Max()
	if !ok || mx != 8 {
		t.Errorf("Max = %d, %v", mx, ok)
	}
	entries := f.Entries()
	if len(entries) != 3 || entries[0].Value != 1 || entries[0].Count != 2 {
		t.Errorf("Entries = %v", entries)
	}
	empty := FreqOf(nil)
	if _, ok := empty.Min(); ok {
		t.Error("Min of empty should be not ok")
	}
	if _, ok := empty.Max(); ok {
		t.Error("Max of empty should be not ok")
	}
}

func TestFreqTotalInvariantProperty(t *testing.T) {
	// Property: total always equals the sum of counts.
	f := func(values []uint64) bool {
		tab := FreqOf(values)
		sum := 0
		for _, e := range tab.Entries() {
			sum += e.Count
		}
		return sum == tab.Total() && tab.Total() == len(values)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestFreqMatchesMapReference runs random Remove and RemoveRange
// sequences on a Freq and on a plain map of counts, and checks after every
// step that both hold the same table and report the same removals.
func TestFreqMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		// A small value domain makes hits, repeats and empty ranges common.
		domain := uint64(1 + rng.Intn(64))
		var initial []uint64
		for i := rng.Intn(50); i > 0; i-- {
			initial = append(initial, uint64(rng.Int63n(int64(domain))))
		}
		f := FreqOf(initial)
		ref := make(map[uint64]int)
		for _, v := range initial {
			ref[v]++
		}
		for step := 0; step < 60; step++ {
			v := uint64(rng.Int63n(int64(domain)))
			switch rng.Intn(2) {
			case 0:
				if got, want := f.Remove(v), ref[v]; got != want {
					t.Fatalf("trial %d step %d: Remove(%d) = %d, want %d", trial, step, v, got, want)
				}
				delete(ref, v)
			case 1:
				hi := uint64(rng.Int63n(int64(domain)))
				want := 0
				for x, c := range ref {
					if x >= v && x <= hi {
						want += c
						delete(ref, x)
					}
				}
				if got := f.RemoveRange(v, hi); got != want {
					t.Fatalf("trial %d step %d: RemoveRange(%d, %d) = %d, want %d", trial, step, v, hi, got, want)
				}
			}
			checkFreqAgainst(t, f, ref)
		}
	}
}

// freqOfReference is FreqOf as a comparison sort of a copy and a
// run-length pass.
func freqOfReference(values []uint64) []Entry {
	sorted := slices.Clone(values)
	slices.Sort(sorted)
	var out []Entry
	for i, v := range sorted {
		if i > 0 && v == sorted[i-1] {
			out[len(out)-1].Count++
		} else {
			out = append(out, Entry{Value: v, Count: 1})
		}
	}
	return out
}

// checkFreqOf compares FreqOf(values) with the reference and checks that
// FreqOf left values unchanged.
func checkFreqOf(t *testing.T, name string, values []uint64) {
	t.Helper()
	before := slices.Clone(values)
	f := FreqOf(values)
	if !slices.Equal(values, before) {
		t.Fatalf("%s: FreqOf modified its input", name)
	}
	want := freqOfReference(values)
	if got := f.Entries(); !slices.Equal(got, want) || f.Total() != len(values) {
		t.Fatalf("%s (n=%d): %d entries, total %d; want %d entries, total %d",
			name, len(values), len(got), f.Total(), len(want), len(values))
	}
}

// TestFreqOfMatchesSort checks FreqOf's radix sort against a comparison
// sort at every value width, on the sizes mining uses and on inputs where
// passes are skipped.
func TestFreqOfMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	// draw returns n values below 2^width from a pool of distinct ones, so
	// that values repeat, with one value's top bit set.
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
	checkFreqOf(t, "nil", nil)
	checkFreqOf(t, "empty", []uint64{})
	checkFreqOf(t, "one zero", []uint64{0})
	checkFreqOf(t, "one max", []uint64{math.MaxUint64})
	checkFreqOf(t, "100k of 52 bits", draw(100_000, 52, 80_000))
	checkFreqOf(t, "100k of 64 bits", draw(100_000, 64, 100_000))
	for width := 1; width <= 64; width++ {
		checkFreqOf(t, fmt.Sprintf("width %d", width), draw(1+rng.Intn(2000), width, 1+rng.Intn(500)))
	}
	for _, v := range []uint64{0, 1, 0xff, 0x100, 1 << 63, math.MaxUint64} {
		values := make([]uint64, 1000)
		for i := range values {
			values[i] = v
		}
		checkFreqOf(t, fmt.Sprintf("all %#x", v), values)
	}
	for _, top := range []int{1, 2, 256} {
		base := rng.Uint64() &^ (0xff << 56)
		values := make([]uint64, 1000)
		for i := range values {
			values[i] = base | uint64(rng.Intn(top))<<56
		}
		checkFreqOf(t, fmt.Sprintf("%d top bytes", top), values)
	}
}

// TestFreqOfDenseEdges checks FreqOf at the edges of its dense-histogram
// guard: the largest value just inside and just outside 16 bits, the
// bound (the OR of the values) one below, equal to and one above
// len(values), and inputs whose histogram has one occupied slot.
func TestFreqOfDenseEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	// spread returns n values below max with max itself among them.
	spread := func(n int, max uint64) []uint64 {
		out := make([]uint64, n)
		for i := range out {
			out[i] = uint64(rng.Int63n(int64(max)))
		}
		out[rng.Intn(n)] = max
		return out
	}
	checkFreqOf(t, "largest 2^16-1", spread(100_000, 1<<16-1))
	checkFreqOf(t, "largest 2^16", spread(100_000, 1<<16))
	// onlyBound returns n values made of bound's bits, bound among them,
	// so that their OR is exactly bound.
	onlyBound := func(n int, bound uint64) []uint64 {
		out := make([]uint64, n)
		for i := range out {
			out[i] = uint64(rng.Int63n(int64(bound)+1)) & bound
		}
		out[0] = bound
		return out
	}
	checkFreqOf(t, "bound = len", onlyBound(1000, 1000))
	checkFreqOf(t, "bound = len-1", onlyBound(1001, 1000))
	checkFreqOf(t, "bound = len+1", onlyBound(999, 1000))
	for _, n := range []int{1, 2, 1000} {
		checkFreqOf(t, fmt.Sprintf("%d zeros", n), make([]uint64, n))
		// n-1 fills the last slot of an n-slot histogram.
		same := make([]uint64, n)
		for i := range same {
			same[i] = uint64(n - 1)
		}
		checkFreqOf(t, fmt.Sprintf("%d of one value", n), same)
	}
}

// FuzzFreqOf reads values as 8-byte little-endian words masked to the
// width the first byte picks, and checks FreqOf against the reference.
func FuzzFreqOf(f *testing.F) {
	f.Add([]byte{8, 1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{63, 0, 0, 0, 0, 0, 0, 0, 0x80, 0, 0, 0, 0, 0, 0, 0, 0x7f})
	f.Add([]byte{20, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		mask := ^uint64(0) >> (63 - data[0]%64)
		data = data[1:]
		var values []uint64
		for ; len(data) >= 8; data = data[8:] {
			values = append(values, binary.LittleEndian.Uint64(data)&mask)
		}
		checkFreqOf(t, "fuzz", values)
	})
}

var freqSink *Freq

// BenchmarkFreqOf100k builds the table of 100k 52-bit values drawn from
// 80k distinct ones, the shape of a wide segment of a 100k-address
// training set.
func BenchmarkFreqOf100k(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	distinct := make([]uint64, 80_000)
	for i := range distinct {
		distinct[i] = rng.Uint64() >> 12
	}
	values := make([]uint64, 100_000)
	for i := range values {
		values[i] = distinct[rng.Intn(len(distinct))]
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		freqSink = FreqOf(values)
	}
}

// BenchmarkFreqOf100kNarrow builds the table of 100k values below 2^16
// drawn from 40k distinct ones, the shape of a 16-bit segment of a
// 100k-address training set (S1's segment E holds about 46k distinct
// values), which FreqOf counts in a dense histogram.
func BenchmarkFreqOf100kNarrow(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	distinct := rng.Perm(1 << 16)[:40_000]
	values := make([]uint64, 100_000)
	for i := range values {
		values[i] = uint64(distinct[rng.Intn(len(distinct))])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		freqSink = FreqOf(values)
	}
}

// checkFreqAgainst compares every read of f with the map reference.
func checkFreqAgainst(t *testing.T, f *Freq, ref map[uint64]int) {
	t.Helper()
	keys := make([]uint64, 0, len(ref))
	total := 0
	for v, c := range ref {
		keys = append(keys, v)
		total += c
	}
	slices.Sort(keys)
	entries := f.Entries()
	if f.Total() != total || f.Distinct() != len(keys) || len(entries) != len(keys) {
		t.Fatalf("Total=%d Distinct=%d entries=%d, want %d %d %d", f.Total(), f.Distinct(), len(entries), total, len(keys), len(keys))
	}
	for i, v := range keys {
		if entries[i] != (Entry{Value: v, Count: ref[v]}) {
			t.Fatalf("entry %d = %+v, want {%d %d}", i, entries[i], v, ref[v])
		}
	}
	mn, okMin := f.Min()
	mx, okMax := f.Max()
	if okMin != (len(keys) > 0) || okMax != (len(keys) > 0) {
		t.Fatalf("Min/Max ok = %v/%v with %d values", okMin, okMax, len(keys))
	}
	if len(keys) > 0 && (mn != keys[0] || mx != keys[len(keys)-1]) {
		t.Fatalf("Min/Max = %d/%d, want %d/%d", mn, mx, keys[0], keys[len(keys)-1])
	}
}

func TestQuartiles(t *testing.T) {
	q1, q2, q3 := Quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9})
	if !almostEqual(q1, 3) || !almostEqual(q2, 5) || !almostEqual(q3, 7) {
		t.Errorf("Quartiles = %v %v %v", q1, q2, q3)
	}
	q1, q2, q3 = Quartiles([]float64{5})
	if q1 != 5 || q2 != 5 || q3 != 5 {
		t.Error("single-element quartiles should all equal the element")
	}
	// numpy convention check: [1,2,3,4] -> 1.75, 2.5, 3.25
	q1, q2, q3 = Quartiles([]float64{1, 2, 3, 4})
	if !almostEqual(q1, 1.75) || !almostEqual(q2, 2.5) || !almostEqual(q3, 3.25) {
		t.Errorf("Quartiles([1..4]) = %v %v %v", q1, q2, q3)
	}
}

func TestQuartilesPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Quartiles(nil)
}

func TestQuantile(t *testing.T) {
	data := []float64{10, 20, 30, 40, 50}
	if !almostEqual(Quantile(data, 0), 10) || !almostEqual(Quantile(data, 1), 50) {
		t.Error("extreme quantiles wrong")
	}
	if !almostEqual(Quantile(data, 0.5), 30) {
		t.Error("median wrong")
	}
	// Input must not be modified (sorted copy).
	shuffled := []float64{50, 10, 30, 20, 40}
	_ = Quantile(shuffled, 0.5)
	if shuffled[0] != 50 {
		t.Error("Quantile modified its input")
	}
}

func TestQuantilePanics(t *testing.T) {
	for _, q := range []float64{-0.1, 1.1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("expected panic for q=%v", q)
				}
			}()
			Quantile([]float64{1}, q)
		}()
	}
}

func TestIQRAndTukey(t *testing.T) {
	data := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9}
	if !almostEqual(TukeyUpperFence(data, 1.5), 7+1.5*4) {
		t.Errorf("TukeyUpperFence = %v", TukeyUpperFence(data, 1.5))
	}
}

func TestMeanVarianceStdDev(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("Mean of no data should be 0")
	}
	data := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if !almostEqual(Mean(data), 5) {
		t.Errorf("Mean = %v", Mean(data))
	}
}

func TestQuantileMonotoneProperty(t *testing.T) {
	f := func(raw []float64, a, b uint8) bool {
		data := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				data = append(data, v)
			}
		}
		if len(data) == 0 {
			return true
		}
		qa := float64(a%101) / 100
		qb := float64(b%101) / 100
		if qa > qb {
			qa, qb = qb, qa
		}
		return Quantile(data, qa) <= Quantile(data, qb)+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
