package bayes

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// correlatedData draws from a 5-variable model with real dependencies so
// structure search has non-trivial work: B copies A with noise, D depends
// on (B, C), E is independent.
func correlatedData(n int, seed int64) ([][]int, []Variable) {
	rng := rand.New(rand.NewSource(seed))
	vars := []Variable{
		{Name: "A", Arity: 4},
		{Name: "B", Arity: 4},
		{Name: "C", Arity: 3},
		{Name: "D", Arity: 5},
		{Name: "E", Arity: 2},
	}
	data := make([][]int, n)
	for i := range data {
		a := rng.Intn(4)
		b := a
		if rng.Float64() < 0.15 {
			b = rng.Intn(4)
		}
		c := rng.Intn(3)
		d := (b + c) % 5
		if rng.Float64() < 0.1 {
			d = rng.Intn(5)
		}
		e := rng.Intn(2)
		data[i] = []int{a, b, c, d, e}
	}
	return data, vars
}

// TestLearnWorkersEquivalent asserts the central determinism guarantee:
// the learned network — structure AND every CPT probability, bit for bit —
// is independent of the worker count.
func TestLearnWorkersEquivalent(t *testing.T) {
	data, vars := correlatedData(5000, 1)
	want, err := Learn(data, nil, vars, LearnConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 8, 0} {
		got, err := Learn(data, nil, vars, LearnConfig{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Parents, want.Parents) {
			t.Fatalf("workers=%d: learned structure differs: %v vs %v", workers, got.Parents, want.Parents)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: learned network differs from sequential result", workers)
		}
	}
}

// TestLearnWorkersEquivalentBIC repeats the check with the BIC score and a
// larger parent budget, exercising different tie-break paths.
func TestLearnWorkersEquivalentBIC(t *testing.T) {
	data, vars := correlatedData(2000, 2)
	cfgBase := LearnConfig{Score: ScoreBIC, MaxParents: 3}
	cfg1 := cfgBase
	cfg1.Workers = 1
	want, err := Learn(data, nil, vars, cfg1)
	if err != nil {
		t.Fatal(err)
	}
	cfg8 := cfgBase
	cfg8.Workers = 8
	got, err := Learn(data, nil, vars, cfg8)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("BIC: learned network differs across worker counts")
	}
}

// TestLearnValidationErrorMatchesSequential checks that sharded validation
// reports the same first-bad-row error a sequential scan would.
func TestLearnValidationErrorMatchesSequential(t *testing.T) {
	data, vars := correlatedData(3000, 3)
	data[1234][2] = 99 // first invalid row
	data[2500][0] = -1 // later invalid row must not win
	for _, workers := range []int{1, 4, 0} {
		_, err := Learn(data, nil, vars, LearnConfig{Workers: workers})
		if err == nil || !strings.Contains(err.Error(), "row 1234") {
			t.Fatalf("workers=%d: err = %v, want first error at row 1234", workers, err)
		}
	}
}

// tallyRows returns the distinct rows of data in order of first
// occurrence and how many times each occurs.
func tallyRows(data [][]int) (rows [][]int, counts []int) {
	index := map[string]int{}
	for _, row := range data {
		key := fmt.Sprint(row)
		i, ok := index[key]
		if !ok {
			i = len(rows)
			index[key] = i
			rows = append(rows, row)
			counts = append(counts, 0)
		}
		counts[i]++
	}
	return rows, counts
}

// TestLearnWeightedMatchesExpanded pins the tallied input to the expanded
// one: learning from the distinct rows and their counts must give the
// network, bit for bit, that learning from every row once gives, for
// both scores, every structure choice and several worker counts. Every
// family score must match bit for bit too, chosen or not.
func TestLearnWeightedMatchesExpanded(t *testing.T) {
	expanded, vars := correlatedData(4000, 4)
	rows, counts := tallyRows(expanded)
	if len(rows) >= len(expanded)/4 {
		t.Fatalf("%d distinct rows of %d: the data must repeat for the test to mean anything", len(rows), len(expanded))
	}
	ones := make([]int, len(expanded))
	for i := range ones {
		ones[i] = 1
	}
	tallied := data{rows: rows, counts: counts, total: len(expanded)}
	full := data{rows: expanded, counts: ones, total: len(expanded)}
	for _, score := range []Score{ScoreBDeu, ScoreBIC} {
		cfg := LearnConfig{Score: score}
		for node := range vars {
			families := [][]int{nil}
			for a := 0; a < node; a++ {
				families = append(families, []int{a})
				for b := a + 1; b < node; b++ {
					families = append(families, []int{a, b})
				}
			}
			for _, parents := range families {
				got := scoreFamily(tallied, vars, node, parents, cfg)
				want := scoreFamily(full, vars, node, parents, cfg)
				if got != want {
					t.Fatalf("score %d, node %d, parents %v: tallied %v, expanded %v", score, node, parents, got, want)
				}
			}
		}
	}
	for _, score := range []Score{ScoreBDeu, ScoreBIC} {
		for _, structure := range []Structure{StructureLearned, StructureIndependent, StructureChain} {
			for _, workers := range []int{1, 4, 0} {
				cfg := LearnConfig{Score: score, Structure: structure, MaxParents: 3, Workers: workers}
				want, err := Learn(expanded, nil, vars, cfg)
				if err != nil {
					t.Fatal(err)
				}
				got, err := Learn(rows, counts, vars, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("score %d, structure %d, workers=%d: tallied rows learn %v, expanded rows %v",
						score, structure, workers, got.Parents, want.Parents)
				}
			}
		}
	}
}

// TestLearnCountValidation checks that counts must match the rows one to
// one and be at least 1, and that the error names the first bad row.
func TestLearnCountValidation(t *testing.T) {
	data, vars := correlatedData(3000, 5)
	counts := make([]int, len(data))
	for i := range counts {
		counts[i] = 1 + i%3
	}
	counts[1234] = 0
	counts[2500] = -2
	for _, workers := range []int{1, 4, 0} {
		_, err := Learn(data, counts, vars, LearnConfig{Workers: workers})
		if err == nil || !strings.Contains(err.Error(), "row 1234 has count 0") {
			t.Fatalf("workers=%d: err = %v, want the count error at row 1234", workers, err)
		}
	}
	if _, err := Learn(data, counts[:10], vars, LearnConfig{}); err == nil {
		t.Fatal("10 counts for 3000 rows: no error")
	}
	huge := []int{maxTotalCount - 1, 2}
	_, err := Learn([][]int{data[0], data[1]}, huge, vars, LearnConfig{})
	if err == nil || !strings.Contains(err.Error(), "row 1") {
		t.Fatalf("counts past 2^53: err = %v, want an error at row 1", err)
	}
}
