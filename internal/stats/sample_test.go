package stats

import (
	"math"
	"testing"
)

func TestRNGDeterminism(t *testing.T) {
	a := RNG(42)
	b := RNG(42)
	for i := 0; i < 10; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("RNG with equal seeds should produce identical streams")
		}
	}
	if RNG(1).Uint64() == RNG(2).Uint64() {
		t.Error("different seeds should (almost surely) differ")
	}
}

func TestSplitIndependentStreams(t *testing.T) {
	a := Split(7, 0)
	b := Split(7, 1)
	c := Split(7, 0)
	if a.Uint64() != c.Uint64() {
		t.Error("Split with same (seed, stream) should be deterministic")
	}
	if Split(7, 0).Uint64() == b.Uint64() {
		t.Error("different streams should differ")
	}
}

func TestSampleN(t *testing.T) {
	in := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	rng := RNG(1)
	got := SampleN(rng, in, 4)
	if len(got) != 4 {
		t.Fatalf("len = %d", len(got))
	}
	seen := map[int]bool{}
	for _, v := range got {
		if seen[v] {
			t.Errorf("duplicate %d in sample without replacement", v)
		}
		seen[v] = true
	}
	// Oversampling returns everything.
	if len(SampleN(rng, in, 100)) != len(in) {
		t.Error("oversampling should return all items")
	}
	if len(SampleN(rng, in, -1)) != 0 {
		t.Error("negative n should return empty")
	}
	// Input unmodified.
	for i, v := range in {
		if v != i+1 {
			t.Fatal("SampleN modified its input")
		}
	}
}

func TestSplitTrainTest(t *testing.T) {
	in := make([]int, 100)
	for i := range in {
		in[i] = i
	}
	train, test := SplitTrainTest(RNG(3), in, 30)
	if len(train) != 30 || len(test) != 70 {
		t.Fatalf("sizes = %d, %d", len(train), len(test))
	}
	seen := map[int]bool{}
	for _, v := range append(append([]int{}, train...), test...) {
		if seen[v] {
			t.Fatalf("item %d appears twice", v)
		}
		seen[v] = true
	}
	if len(seen) != 100 {
		t.Error("train+test should partition the input")
	}
	// Degenerate sizes.
	tr, te := SplitTrainTest(RNG(3), in, 1000)
	if len(tr) != 100 || len(te) != 0 {
		t.Error("oversized train should take everything")
	}
}

func TestStratifiedSample(t *testing.T) {
	type item struct {
		group string
		id    int
	}
	var in []item
	for g, n := range map[string]int{"a": 50, "b": 3, "c": 20} {
		for i := 0; i < n; i++ {
			in = append(in, item{group: g, id: i})
		}
	}
	out := StratifiedSample(RNG(5), in, func(it item) string { return it.group }, 10)
	perGroup := map[string]int{}
	for _, it := range out {
		perGroup[it.group]++
	}
	if perGroup["a"] != 10 || perGroup["b"] != 3 || perGroup["c"] != 10 {
		t.Errorf("per-group counts = %v", perGroup)
	}
}

func TestWeightedChoice(t *testing.T) {
	rng := RNG(11)
	counts := [3]int{}
	for i := 0; i < 30000; i++ {
		counts[WeightedChoice(rng, []float64{1, 2, 7})]++
	}
	total := 30000.0
	if math.Abs(float64(counts[0])/total-0.1) > 0.02 ||
		math.Abs(float64(counts[1])/total-0.2) > 0.02 ||
		math.Abs(float64(counts[2])/total-0.7) > 0.02 {
		t.Errorf("weighted choice distribution off: %v", counts)
	}
	// Zero and negative weights never selected.
	for i := 0; i < 100; i++ {
		if WeightedChoice(rng, []float64{0, -3, 1}) != 2 {
			t.Fatal("zero/negative weights must never be selected")
		}
	}
}

func TestWeightedChoicePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for all-zero weights")
		}
	}()
	WeightedChoice(RNG(1), []float64{0, 0})
}
