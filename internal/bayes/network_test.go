package bayes

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// chainData generates data from A -> B (deterministic-ish copy) with C
// independent and uniform.
func chainData(n int, seed int64) ([][]int, []Variable) {
	rng := rand.New(rand.NewSource(seed))
	vars := []Variable{{Name: "A", Arity: 2}, {Name: "B", Arity: 2}, {Name: "C", Arity: 3}}
	data := make([][]int, n)
	for i := range data {
		a := rng.Intn(2)
		b := a
		if rng.Float64() < 0.05 {
			b = 1 - a
		}
		c := rng.Intn(3)
		data[i] = []int{a, b, c}
	}
	return data, vars
}

func TestLearnRecoversDependency(t *testing.T) {
	data, vars := chainData(5000, 1)
	net, err := Learn(data, nil, vars, LearnConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Validate(); err != nil {
		t.Fatal(err)
	}
	// B must depend on A; C must be independent.
	if len(net.Parents[1]) != 1 || net.Parents[1][0] != 0 {
		t.Errorf("Parents[B] = %v, want [0]", net.Parents[1])
	}
	if len(net.Parents[2]) != 0 {
		t.Errorf("Parents[C] = %v, want none", net.Parents[2])
	}
	// CPT of B given A: strongly diagonal.
	cpt := net.CPTs[1]
	if cpt.Rows[cpt.RowIndex([]int{0})][0] < 0.9 || cpt.Rows[cpt.RowIndex([]int{1})][1] < 0.9 {
		t.Errorf("CPT of B|A looks wrong: %+v", net.CPTs[1].Rows)
	}
}

func TestLearnBICAlsoRecovers(t *testing.T) {
	data, vars := chainData(5000, 2)
	net, err := Learn(data, nil, vars, LearnConfig{Score: ScoreBIC})
	if err != nil {
		t.Fatal(err)
	}
	if len(net.Parents[1]) != 1 || net.Parents[1][0] != 0 {
		t.Errorf("BIC: Parents[B] = %v, want [0]", net.Parents[1])
	}
	if len(net.Parents[2]) != 0 {
		t.Errorf("BIC: Parents[C] = %v, want none", net.Parents[2])
	}
}

func TestLearnOrderingConstraint(t *testing.T) {
	// Even though the dependency is A -> B, node A (index 0) can never have
	// a parent; only B may point back at A through inference.
	data, vars := chainData(2000, 3)
	net, err := Learn(data, nil, vars, LearnConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(net.Parents[0]) != 0 {
		t.Error("first node must have no parents")
	}
	for i, parents := range net.Parents {
		for _, p := range parents {
			if p >= i {
				t.Errorf("node %d has parent %d violating the ordering", i, p)
			}
		}
	}
}

func TestLearnForcedStructures(t *testing.T) {
	data, vars := chainData(1000, 4)
	indep, err := Learn(data, nil, vars, LearnConfig{Structure: StructureIndependent})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range indep.Parents {
		if len(p) != 0 {
			t.Errorf("independent structure: node %d has parents %v", i, p)
		}
	}
	chain, err := Learn(data, nil, vars, LearnConfig{Structure: StructureChain})
	if err != nil {
		t.Fatal(err)
	}
	if len(chain.Parents[0]) != 0 || len(chain.Parents[1]) != 1 || chain.Parents[1][0] != 0 ||
		len(chain.Parents[2]) != 1 || chain.Parents[2][0] != 1 {
		t.Errorf("chain structure wrong: %v", chain.Parents)
	}
	// The learned structure should fit the data at least as well as the
	// independent one.
	learned, err := Learn(data, nil, vars, LearnConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if scoreRows(learned, data) < scoreRows(indep, data)-1e-6 {
		t.Error("learned structure should not fit worse than independent")
	}
}

func TestLearnThreeWayDependency(t *testing.T) {
	// C depends on both A and B (XOR with noise); with MaxParents=2 the
	// learner should pick both, and with MaxParents=1 only one.
	rng := rand.New(rand.NewSource(5))
	vars := []Variable{{Name: "A", Arity: 2}, {Name: "B", Arity: 2}, {Name: "C", Arity: 2}}
	data := make([][]int, 8000)
	for i := range data {
		a, b := rng.Intn(2), rng.Intn(2)
		c := a ^ b
		if rng.Float64() < 0.02 {
			c = 1 - c
		}
		data[i] = []int{a, b, c}
	}
	net, err := Learn(data, nil, vars, LearnConfig{MaxParents: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(net.Parents[2]) != 2 {
		t.Errorf("Parents[C] = %v, want both A and B (XOR is invisible to single parents)", net.Parents[2])
	}
	net1, err := Learn(data, nil, vars, LearnConfig{MaxParents: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(net1.Parents[2]) > 1 {
		t.Errorf("MaxParents=1 violated: %v", net1.Parents[2])
	}
}

func TestLearnInputValidation(t *testing.T) {
	vars := []Variable{{Name: "A", Arity: 2}}
	if _, err := Learn([][]int{{0, 1}}, nil, vars, LearnConfig{}); err == nil {
		t.Error("expected error for row width mismatch")
	}
	if _, err := Learn([][]int{{5}}, nil, vars, LearnConfig{}); err == nil {
		t.Error("expected error for out-of-range value")
	}
	if _, err := Learn(nil, nil, []Variable{{Name: "A", Arity: 0}}, LearnConfig{}); err == nil {
		t.Error("expected error for zero arity")
	}
	// Empty data is allowed: uniform CPTs from smoothing.
	net, err := Learn(nil, nil, vars, LearnConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !approx(net.CPTs[0].Rows[0][0], 0.5) {
		t.Errorf("empty-data CPT = %v", net.CPTs[0].Rows)
	}
}

func TestCPTRowsAreDistributions(t *testing.T) {
	data, vars := chainData(500, 6)
	net, err := Learn(data, nil, vars, LearnConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for i, cpt := range net.CPTs {
		for j, row := range cpt.Rows {
			sum := 0.0
			for _, p := range row {
				if p <= 0 {
					t.Errorf("node %d row %d has non-positive probability (smoothing should prevent this)", i, j)
				}
				sum += p
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Errorf("node %d row %d sums to %v", i, j, sum)
			}
		}
	}
}

func TestSampleMatchesDistribution(t *testing.T) {
	data, vars := chainData(5000, 7)
	net, err := Learn(data, nil, vars, LearnConfig{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	sampler := net.NewSampler()
	buf := make([]int, sampler.NumVars())
	const n = 20000
	countA0 := 0
	agree := 0
	for i := 0; i < n; i++ {
		s := sampler.SampleInto(rng, buf)
		if len(s) != 3 {
			t.Fatal("sample length wrong")
		}
		if s[0] == 0 {
			countA0++
		}
		if s[0] == s[1] {
			agree++
		}
	}
	if math.Abs(float64(countA0)/n-0.5) > 0.03 {
		t.Errorf("P(A=0) sampled as %v, want ~0.5", float64(countA0)/n)
	}
	if float64(agree)/n < 0.9 {
		t.Errorf("A and B agree only %v of the time, want ~0.95", float64(agree)/n)
	}
}

func TestLogLikelihoodPrefersTrueModel(t *testing.T) {
	data, vars := chainData(2000, 9)
	learned, _ := Learn(data, nil, vars, LearnConfig{})
	indep, _ := Learn(data, nil, vars, LearnConfig{Structure: StructureIndependent})
	if scoreRows(learned, data) <= scoreRows(indep, data) {
		t.Error("dependency-aware model should have higher likelihood")
	}
}

func TestEdgesAndNumVars(t *testing.T) {
	data, vars := chainData(1000, 10)
	net, _ := Learn(data, nil, vars, LearnConfig{})
	if net.NumVars() != 3 {
		t.Errorf("NumVars = %d", net.NumVars())
	}
	edges := net.Edges()
	found := false
	for _, e := range edges {
		if e[0] == 0 && e[1] == 1 {
			found = true
		}
	}
	if !found {
		t.Errorf("edge A->B missing: %v", edges)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	data, vars := chainData(500, 11)
	net, _ := Learn(data, nil, vars, LearnConfig{})
	net.CPTs[0].Rows[0][0] = 5
	if err := net.Validate(); err == nil {
		t.Error("expected validation error for non-normalized row")
	}
	net2, _ := Learn(data, nil, vars, LearnConfig{})
	net2.Parents[1] = []int{2}
	if err := net2.Validate(); err == nil {
		t.Error("expected validation error for ordering violation")
	}
}

func TestScorerPanicsOnOutOfRangeParent(t *testing.T) {
	data, vars := chainData(500, 12)
	net, _ := Learn(data, nil, vars, LearnConfig{})
	if len(net.Parents[1]) == 0 {
		t.Skip("no dependency learned")
	}
	s := net.NewScorer()
	row := []int{0, 0, 0}
	s.Add(0, row) // in range: no panic
	row[net.Parents[1][0]] = vars[net.Parents[1][0]].Arity
	defer func() {
		if recover() == nil {
			t.Error("expected panic for out-of-range parent value")
		}
	}()
	s.Add(0, row)
}

// TestScorerAddZeroAlloc pins the scoring contract: a row costs table
// lookups only.
func TestScorerAddZeroAlloc(t *testing.T) {
	data, vars := chainData(500, 12)
	net, err := Learn(data, nil, vars, LearnConfig{})
	if err != nil {
		t.Fatal(err)
	}
	s := net.NewScorer()
	ll := 0.0
	i := 0
	if n := testing.AllocsPerRun(200, func() {
		ll = s.Add(ll, data[i%len(data)])
		i++
	}); n != 0 {
		t.Fatalf("Scorer.Add allocates %.1f times per row, want 0", n)
	}
}

// scoreRows returns the network's total log-likelihood of the rows,
// added through one Scorer in row order.
func scoreRows(n *Network, data [][]int) float64 {
	s := n.NewScorer()
	ll := 0.0
	for _, row := range data {
		ll = s.Add(ll, row)
	}
	return ll
}

// mapLogLikelihood is the map-based log-likelihood loop the Scorer
// replaced, kept as its oracle: per row, every node's probability looked
// up through a parent-value map and CPT.RowIndex, floored at 1e-300 and
// logged, summed in row then node order.
func mapLogLikelihood(n *Network, data [][]int) float64 {
	ll := 0.0
	assignment := make(map[int]int, len(n.Vars))
	for _, row := range data {
		for i, v := range row {
			assignment[i] = v
		}
		for i := range n.Vars {
			pv := make([]int, len(n.Parents[i]))
			for k, p := range n.Parents[i] {
				pv[k] = assignment[p]
			}
			cpt := n.CPTs[i]
			p := cpt.Rows[cpt.RowIndex(pv)][row[i]]
			if p <= 0 {
				p = 1e-300
			}
			ll += math.Log(p)
		}
	}
	return ll
}

// TestScorerMatchesMapLogLikelihood pins Scorer.Add to the map-based
// loop bit for bit, on learned networks with multi-parent nodes and on a
// CPT with zero cells (the 1e-300 floor).
func TestScorerMatchesMapLogLikelihood(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		vars := []Variable{{Name: "A", Arity: 3}, {Name: "B", Arity: 4}, {Name: "C", Arity: 2}, {Name: "D", Arity: 5}, {Name: "E", Arity: 3}}
		data := make([][]int, 800)
		for r := range data {
			a := rng.Intn(3)
			b := (a + rng.Intn(2)) % 4
			c := (a + b) % 2
			d := (b*c + rng.Intn(2)) % 5
			data[r] = []int{a, b, c, d, rng.Intn(3)}
		}
		net, err := Learn(data, nil, vars, LearnConfig{MaxParents: 3})
		if err != nil {
			t.Fatal(err)
		}
		if seed == 4 {
			// A zero cell must score log(1e-300), as the map loop does.
			net.CPTs[4].Rows[0] = []float64{0, 0.5, 0.5}
		}
		if got, want := scoreRows(net, data), mapLogLikelihood(net, data); got != want {
			t.Fatalf("seed %d: Scorer.Add total = %v, map-based loop %v", seed, got, want)
		}
	}
}

func TestMaxParentConfigsLimit(t *testing.T) {
	// With a tiny MaxParentConfigs, high-arity parents are rejected.
	rng := rand.New(rand.NewSource(13))
	vars := []Variable{{Name: "A", Arity: 50}, {Name: "B", Arity: 2}}
	data := make([][]int, 2000)
	for i := range data {
		a := rng.Intn(50)
		data[i] = []int{a, a % 2}
	}
	net, err := Learn(data, nil, vars, LearnConfig{MaxParentConfigs: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(net.Parents[1]) != 0 {
		t.Errorf("parent set exceeding MaxParentConfigs should be rejected: %v", net.Parents[1])
	}
}

// TestLearnMaxParentsPastLimit pins the MaxParents bound: MaxParents
// reaches Learn from requests and model files, and 16^16 parent
// configurations must be an error, not a wrapped budget check that
// indexes out of range.
func TestLearnMaxParentsPastLimit(t *testing.T) {
	vars := make([]Variable, 18)
	for i := range vars {
		vars[i] = Variable{Name: fmt.Sprint(i), Arity: 16}
	}
	rows := [][]int{make([]int, len(vars))}
	_, err := Learn(rows, nil, vars, LearnConfig{MaxParents: 17})
	if err == nil || !strings.Contains(err.Error(), "MaxParents 17") {
		t.Fatalf("MaxParents 17: err = %v, want a MaxParents error", err)
	}
	if _, err := Learn(rows, nil, vars, LearnConfig{MaxParents: MaxParentsLimit}); err != nil {
		t.Fatalf("MaxParents %d: %v", MaxParentsLimit, err)
	}
}

// TestLearnMaxParentConfigsPastLimit pins the MaxParentConfigs bound:
// the budget reaches Learn from model files, and past the limit it would
// let familyCounts allocate without bound.
func TestLearnMaxParentConfigsPastLimit(t *testing.T) {
	vars := []Variable{{Name: "A", Arity: 2}, {Name: "B", Arity: 2}, {Name: "C", Arity: 2}}
	rows := [][]int{{0, 1, 0}, {1, 0, 1}}
	_, err := Learn(rows, nil, vars, LearnConfig{MaxParentConfigs: MaxParentConfigsLimit + 1})
	if err == nil || !strings.Contains(err.Error(), "MaxParentConfigs") {
		t.Fatalf("MaxParentConfigs %d: err = %v, want a MaxParentConfigs error", MaxParentConfigsLimit+1, err)
	}
	if _, err := Learn(rows, nil, vars, LearnConfig{MaxParentConfigs: MaxParentConfigsLimit}); err != nil {
		t.Fatalf("MaxParentConfigs %d: %v", MaxParentConfigsLimit, err)
	}
}

// TestLearnParentConfigsSaturate covers a parent set whose arity product
// overflows int within MaxParentsLimit: four parents of arity 2^16 make
// 2^64 configurations, which must count as past the budget.
func TestLearnParentConfigsSaturate(t *testing.T) {
	vars := make([]Variable, 5)
	for i := range vars {
		vars[i] = Variable{Name: fmt.Sprint(i), Arity: 1 << 16}
	}
	rows := [][]int{{0, 1, 2, 3, 4}, {5, 6, 7, 8, 9}}
	net, err := Learn(rows, nil, vars, LearnConfig{MaxParents: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i, parents := range net.Parents {
		if len(parents) != 0 {
			t.Errorf("node %d: parents %v past the 4096 budget", i, parents)
		}
	}
}

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
// both scores and every structure choice. Every family score must match
// bit for bit too, chosen or not.
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
			cfg := LearnConfig{Score: score, Structure: structure, MaxParents: 3}
			want, err := Learn(expanded, nil, vars, cfg)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Learn(rows, counts, vars, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("score %d, structure %d: tallied rows learn %v, expanded rows %v",
					score, structure, got.Parents, want.Parents)
			}
		}
	}
}

// TestLearnValidationErrorMatchesSequential checks that validation
// reports the first bad row, the error a sequential scan meets first,
// not a later one.
func TestLearnValidationErrorMatchesSequential(t *testing.T) {
	data, vars := correlatedData(3000, 3)
	data[1234][2] = 99 // first invalid row
	data[2500][0] = -1 // later invalid row must not win
	_, err := Learn(data, nil, vars, LearnConfig{})
	if err == nil || !strings.Contains(err.Error(), "row 1234") {
		t.Fatalf("err = %v, want first error at row 1234", err)
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
	_, err := Learn(data, counts, vars, LearnConfig{})
	if err == nil || !strings.Contains(err.Error(), "row 1234 has count 0") {
		t.Fatalf("err = %v, want the count error at row 1234", err)
	}
	if _, err := Learn(data, counts[:10], vars, LearnConfig{}); err == nil {
		t.Fatal("10 counts for 3000 rows: no error")
	}
	huge := []int{maxTotalCount - 1, 2}
	_, err = Learn([][]int{data[0], data[1]}, huge, vars, LearnConfig{})
	if err == nil || !strings.Contains(err.Error(), "row 1") {
		t.Fatalf("counts past 2^53: err = %v, want an error at row 1", err)
	}
}

func BenchmarkLearn10Vars(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	nvars := 10
	vars := make([]Variable, nvars)
	for i := range vars {
		vars[i] = Variable{Name: string(rune('A' + i)), Arity: 5}
	}
	data := make([][]int, 1000)
	for i := range data {
		row := make([]int, nvars)
		row[0] = rng.Intn(5)
		for j := 1; j < nvars; j++ {
			if rng.Float64() < 0.7 {
				row[j] = row[j-1]
			} else {
				row[j] = rng.Intn(5)
			}
		}
		data[i] = row
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Learn(data, nil, vars, LearnConfig{}); err != nil {
			b.Fatal(err)
		}
	}
}
