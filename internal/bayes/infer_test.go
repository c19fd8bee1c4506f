package bayes

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// sprinklerNetwork builds the classic rain/sprinkler/wet-grass network by
// hand (with the ordering Rain=0, Sprinkler=1, Wet=2) so inference results
// can be checked against hand-computed values.
func sprinklerNetwork() *Network {
	net := &Network{
		Vars: []Variable{{Name: "Rain", Arity: 2}, {Name: "Sprinkler", Arity: 2}, {Name: "Wet", Arity: 2}},
		Parents: [][]int{
			{},
			{0},
			{0, 1},
		},
	}
	// P(Rain=1) = 0.2
	net.CPTs = []*CPT{
		{ParentCard: nil, Arity: 2, Rows: [][]float64{{0.8, 0.2}}},
		// P(Sprinkler=1 | Rain): 0.4 if no rain, 0.01 if rain.
		{ParentCard: []int{2}, Arity: 2, Rows: [][]float64{{0.6, 0.4}, {0.99, 0.01}}},
		// P(Wet=1 | Rain, Sprinkler): rows ordered Rain slowest.
		{ParentCard: []int{2, 2}, Arity: 2, Rows: [][]float64{
			{1.0, 0.0},   // no rain, no sprinkler
			{0.1, 0.9},   // no rain, sprinkler
			{0.2, 0.8},   // rain, no sprinkler
			{0.01, 0.99}, // rain, sprinkler
		}},
	}
	return net
}

func TestSprinklerValidate(t *testing.T) {
	if err := sprinklerNetwork().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestQueryPrior(t *testing.T) {
	net := sprinklerNetwork()
	dist, err := net.Query(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(dist[1], 0.2) {
		t.Errorf("P(Rain) = %v", dist)
	}
	// P(Wet=1) = sum over rain, sprinkler.
	// = 0.8*(0.6*0 + 0.4*0.9) + 0.2*(0.99*0.8 + 0.01*0.99)
	want := 0.8*(0.6*0+0.4*0.9) + 0.2*(0.99*0.8+0.01*0.99)
	dist, err = net.Query(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(dist[1]-want) > 1e-9 {
		t.Errorf("P(Wet=1) = %v, want %v", dist[1], want)
	}
}

func TestQueryEvidentialReasoning(t *testing.T) {
	// Conditioning on a downstream variable must update upstream beliefs:
	// P(Rain=1 | Wet=1) > P(Rain=1). This is the "probabilistic influence
	// can flow backwards" behaviour the paper's browser relies on.
	net := sprinklerNetwork()
	prior, _ := net.Query(0, nil)
	posterior, err := net.Query(0, map[int]int{2: 1})
	if err != nil {
		t.Fatal(err)
	}
	if posterior[1] <= prior[1] {
		t.Errorf("P(Rain|Wet) = %v should exceed prior %v", posterior[1], prior[1])
	}
	// Explaining away: adding Sprinkler=1 as evidence should reduce the
	// belief in rain compared with Wet alone.
	both, err := net.Query(0, map[int]int{2: 1, 1: 1})
	if err != nil {
		t.Fatal(err)
	}
	if both[1] >= posterior[1] {
		t.Errorf("explaining away failed: %v vs %v", both[1], posterior[1])
	}
}

func TestQueryHandComputedPosterior(t *testing.T) {
	// P(Rain=1 | Wet=1) computed by hand:
	// joint(R, S, W=1) summed appropriately.
	net := sprinklerNetwork()
	num := 0.2 * (0.99*0.8 + 0.01*0.99)
	den := num + 0.8*(0.6*0+0.4*0.9)
	want := num / den
	got, err := net.Query(0, map[int]int{2: 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got[1]-want) > 1e-9 {
		t.Errorf("P(Rain=1|Wet=1) = %v, want %v", got[1], want)
	}
}

func TestQueryTargetObserved(t *testing.T) {
	net := sprinklerNetwork()
	dist, err := net.Query(1, map[int]int{1: 0})
	if err != nil {
		t.Fatal(err)
	}
	if dist[0] != 1 || dist[1] != 0 {
		t.Errorf("observed target should be a point mass: %v", dist)
	}
}

func TestQueryErrors(t *testing.T) {
	net := sprinklerNetwork()
	if _, err := net.Query(9, nil); err == nil {
		t.Error("expected error for bad target")
	}
	if _, err := net.Query(0, map[int]int{1: 9}); err == nil {
		t.Error("expected error for bad evidence value")
	}
	if _, err := net.Query(0, map[int]int{-1: 0}); err == nil {
		t.Error("expected error for bad evidence variable")
	}
	if _, err := net.Query(1, map[int]int{1: 9}); err == nil {
		t.Error("expected error for bad observed target value")
	}
	// Impossible evidence: Wet=1 with Rain=0, Sprinkler=0 has probability 0.
	if _, err := net.Query(0, map[int]int{1: 0, 2: 1, 0: 0}); err == nil {
		// Note: all variables observed; query of observed target returns
		// point mass, so use an unobservable-target query instead.
		t.Log("all-observed query returns point mass; acceptable")
	}
	zero := &Network{
		Vars:    []Variable{{Name: "A", Arity: 2}, {Name: "B", Arity: 2}},
		Parents: [][]int{{}, {0}},
		CPTs: []*CPT{
			{Arity: 2, Rows: [][]float64{{1, 0}}},
			{ParentCard: []int{2}, Arity: 2, Rows: [][]float64{{1, 0}, {0, 1}}},
		},
	}
	if _, err := zero.Query(0, map[int]int{1: 1}); err == nil {
		t.Error("expected zero-probability-evidence error")
	}
}

func TestPosteriors(t *testing.T) {
	net := sprinklerNetwork()
	posts, err := net.Posteriors(map[int]int{2: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(posts) != 3 {
		t.Fatalf("posteriors = %d", len(posts))
	}
	for i, dist := range posts {
		sum := 0.0
		for _, p := range dist {
			sum += p
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("posterior %d sums to %v", i, sum)
		}
	}
	if posts[2][1] != 1 {
		t.Error("observed variable posterior should be a point mass")
	}
}

// probEvidence returns P(evidence): the product of the constants that
// eliminating every unobserved variable leaves.
func probEvidence(n *Network, evidence map[int]int) (float64, error) {
	factors, err := n.eliminate(evidence, -1, nil)
	if err != nil {
		return 0, err
	}
	p := 1.0
	for _, f := range factors {
		if len(f.Vars) != 0 {
			return 0, fmt.Errorf("leftover factor over %v", f.Vars)
		}
		p *= f.Sum()
	}
	return p, nil
}

func TestProbEvidence(t *testing.T) {
	net := sprinklerNetwork()
	p, err := probEvidence(net, map[int]int{0: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !approx(p, 0.2) {
		t.Errorf("P(Rain=1) = %v", p)
	}
	pw, err := probEvidence(net, map[int]int{2: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := 0.8*(0.6*0+0.4*0.9) + 0.2*(0.99*0.8+0.01*0.99)
	if math.Abs(pw-want) > 1e-9 {
		t.Errorf("P(Wet=1) = %v, want %v", pw, want)
	}
	if _, err := probEvidence(net, map[int]int{0: 7}); err == nil {
		t.Error("expected error for invalid evidence")
	}
	// Empty evidence has probability 1.
	p1, err := probEvidence(net, nil)
	if err != nil || math.Abs(p1-1) > 1e-9 {
		t.Errorf("P(nothing) = %v, %v", p1, err)
	}
}

func TestSampleConditionalRespectsEvidence(t *testing.T) {
	net := sprinklerNetwork()
	rng := rand.New(rand.NewSource(1))
	cs, err := net.NewCondSampler(map[int]int{2: 1})
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]int, net.NumVars())
	const n = 5000
	rainCount := 0
	for i := 0; i < n; i++ {
		s := cs.SampleInto(rng, buf)
		if s[2] != 1 {
			t.Fatal("evidence not respected")
		}
		if s[0] == 1 {
			rainCount++
		}
	}
	want, _ := net.Query(0, map[int]int{2: 1})
	got := float64(rainCount) / n
	if math.Abs(got-want[1]) > 0.03 {
		t.Errorf("conditional sampling P(Rain=1|Wet=1) = %v, want %v", got, want[1])
	}
	if _, err := net.NewCondSampler(map[int]int{0: 9}); err == nil {
		t.Error("expected error for invalid evidence")
	}
}

// TestSampleConditionalNoEvidenceMatchesForward pins that conditioning
// on nothing draws the forward sampler's exact sequence, and that the
// sequence has the network's marginal.
func TestSampleConditionalNoEvidenceMatchesForward(t *testing.T) {
	net := sprinklerNetwork()
	cs, err := net.NewCondSampler(nil)
	if err != nil {
		t.Fatal(err)
	}
	fwd := net.NewSampler()
	r1 := rand.New(rand.NewSource(2))
	r2 := rand.New(rand.NewSource(2))
	buf1 := make([]int, net.NumVars())
	buf2 := make([]int, net.NumVars())
	const n = 8000
	wet := 0
	for i := 0; i < n; i++ {
		s := cs.SampleInto(r1, buf1)
		if f := fwd.SampleInto(r2, buf2); !slices.Equal(s, f) {
			t.Fatalf("draw %d: conditional %v, forward %v", i, s, f)
		}
		if s[2] == 1 {
			wet++
		}
	}
	want := 0.8*(0.6*0+0.4*0.9) + 0.2*(0.99*0.8+0.01*0.99)
	if math.Abs(float64(wet)/n-want) > 0.03 {
		t.Errorf("P(Wet=1) sampled %v, want %v", float64(wet)/n, want)
	}
}

func TestMutualInformation(t *testing.T) {
	net := sprinklerNetwork()
	miRW, err := net.MutualInformation(0, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if miRW <= 0 {
		t.Errorf("MI(Rain, Wet) = %v, want > 0", miRW)
	}
	// Symmetry (approximately, both computed through exact inference).
	miWR, err := net.MutualInformation(2, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(miRW-miWR) > 1e-6 {
		t.Errorf("MI not symmetric: %v vs %v", miRW, miWR)
	}
	if _, err := net.MutualInformation(1, 1, nil); err == nil {
		t.Error("MI of a variable with itself should error")
	}
	// Independent variables have (near) zero MI.
	indep := &Network{
		Vars:    []Variable{{Name: "A", Arity: 2}, {Name: "B", Arity: 2}},
		Parents: [][]int{{}, {}},
		CPTs: []*CPT{
			{Arity: 2, Rows: [][]float64{{0.5, 0.5}}},
			{Arity: 2, Rows: [][]float64{{0.3, 0.7}}},
		},
	}
	mi, err := indep.MutualInformation(0, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if mi > 1e-9 {
		t.Errorf("MI of independent variables = %v", mi)
	}
}

func TestQueryLearnedNetworkConsistency(t *testing.T) {
	// Learn from data and verify Query(node | nothing) approximates the
	// empirical marginals.
	data, vars := chainData(5000, 20)
	net, err := Learn(data, nil, vars, LearnConfig{})
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, 3)
	for _, row := range data {
		counts[row[2]]++
	}
	dist, err := net.Query(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 3; k++ {
		emp := float64(counts[k]) / float64(len(data))
		if math.Abs(dist[k]-emp) > 0.02 {
			t.Errorf("marginal of C[%d]: %v vs empirical %v", k, dist[k], emp)
		}
	}
}

func BenchmarkQuery(b *testing.B) {
	data, vars := chainData(2000, 21)
	net, _ := Learn(data, nil, vars, LearnConfig{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := net.Query(0, map[int]int{2: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSample times one unconditional draw, the way generation
// without evidence runs: the twin of BenchmarkSampleConditional.
func BenchmarkSample(b *testing.B) {
	data, vars := chainData(2000, 22)
	net, _ := Learn(data, nil, vars, LearnConfig{})
	rng := rand.New(rand.NewSource(1))
	s := net.NewSampler()
	buf := make([]int, net.NumVars())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.SampleInto(rng, buf)
	}
}

// BenchmarkSampleConditional times one draw from a sampler compiled
// once for the evidence, the way generation under evidence runs.
func BenchmarkSampleConditional(b *testing.B) {
	data, vars := chainData(2000, 22)
	net, _ := Learn(data, nil, vars, LearnConfig{})
	rng := rand.New(rand.NewSource(1))
	cs, err := net.NewCondSampler(map[int]int{2: 1})
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]int, net.NumVars())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cs.SampleInto(rng, buf)
	}
}

// BenchmarkNewCondSampler times compiling a conditional sampler: the one
// variable-elimination pass generation under evidence runs per request.
func BenchmarkNewCondSampler(b *testing.B) {
	data, vars := chainData(2000, 22)
	net, _ := Learn(data, nil, vars, LearnConfig{})
	ev := map[int]int{2: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := net.NewCondSampler(ev); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPosteriors times one browse click: a posterior for every
// variable under the evidence.
func BenchmarkPosteriors(b *testing.B) {
	data, vars := chainData(2000, 21)
	net, _ := Learn(data, nil, vars, LearnConfig{})
	ev := map[int]int{2: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := net.Posteriors(ev); err != nil {
			b.Fatal(err)
		}
	}
}

// wideNetwork passes Validate, yet exact inference on it needs a 64^6-entry
// (550 GB) factor: six roots of arity 64 and fifteen arity-1 children, one
// for each pair of roots with that pair as its parents. Once the children
// are summed out, eliminating any root multiplies it with every other.
func wideNetwork() *Network {
	const roots, arity = 6, 64
	net := &Network{}
	for i := 0; i < roots; i++ {
		row := make([]float64, arity)
		for k := range row {
			row[k] = 1.0 / arity
		}
		net.Vars = append(net.Vars, Variable{Name: fmt.Sprint("R", i), Arity: arity})
		net.Parents = append(net.Parents, nil)
		net.CPTs = append(net.CPTs, &CPT{Arity: arity, Rows: [][]float64{row}})
	}
	for a := 0; a < roots; a++ {
		for b := a + 1; b < roots; b++ {
			rows := make([][]float64, arity*arity)
			for r := range rows {
				rows[r] = []float64{1}
			}
			net.Vars = append(net.Vars, Variable{Name: fmt.Sprint("C", a, b), Arity: 1})
			net.Parents = append(net.Parents, []int{a, b})
			net.CPTs = append(net.CPTs, &CPT{ParentCard: []int{arity, arity}, Arity: 1, Rows: rows})
		}
	}
	return net
}

// TestFactorBound pins that every inference entry point refuses, before
// building any factor, evidence whose elimination needs a factor past
// maxFactorEntries — and accepts evidence on the same network that keeps
// the factors small.
func TestFactorBound(t *testing.T) {
	net := wideNetwork()
	if err := net.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := net.Query(0, nil); !errors.Is(err, ErrFactorTooLarge) {
		t.Errorf("Query: err = %v, want ErrFactorTooLarge", err)
	}
	if _, err := net.Posteriors(map[int]int{6: 0}); !errors.Is(err, ErrFactorTooLarge) {
		t.Errorf("Posteriors: err = %v, want ErrFactorTooLarge", err)
	}
	if _, err := net.NewCondSampler(map[int]int{0: 3}); !errors.Is(err, ErrFactorTooLarge) {
		t.Errorf("NewCondSampler: err = %v, want ErrFactorTooLarge", err)
	}
	// Observing four roots leaves products over the other two: 4096 entries.
	ev := map[int]int{0: 1, 1: 2, 2: 3, 3: 4}
	if _, err := net.Posteriors(ev); err != nil {
		t.Errorf("Posteriors under four observed roots: %v", err)
	}
	if _, err := net.NewCondSampler(ev); err != nil {
		t.Errorf("NewCondSampler under four observed roots: %v", err)
	}
}

// TestCheckFactorSizesBoundary pins the bound's edge and its overflow
// safety on scope-only networks (no CPTs are needed to size factors).
func TestCheckFactorSizesBoundary(t *testing.T) {
	pair := func(a, b, child int) *Network {
		return &Network{
			Vars:    []Variable{{Arity: a}, {Arity: b}, {Arity: child}},
			Parents: [][]int{nil, nil, {0, 1}},
		}
	}
	if err := pair(1024, 4096, 1).checkFactorSizes(nil, -1); err != nil {
		t.Errorf("factor of exactly maxFactorEntries: %v", err)
	}
	if err := pair(1024, 4096, 2).checkFactorSizes(nil, -1); !errors.Is(err, ErrFactorTooLarge) {
		t.Errorf("factor of 2*maxFactorEntries: err = %v", err)
	}
	// Evidence on a parent drops it from every scope.
	if err := pair(1024, 4096, 2).checkFactorSizes(map[int]int{0: 0}, -1); err != nil {
		t.Errorf("observed parent: %v", err)
	}
	// (MaxInt/2+1)*2 wraps negative; the saturating product must not.
	// Keeping variable 0 leaves only the wrapping products to check.
	if err := pair(math.MaxInt/2+1, 2, 1).checkFactorSizes(nil, 0); !errors.Is(err, ErrFactorTooLarge) {
		t.Errorf("overflowing factor: err = %v", err)
	}
}
