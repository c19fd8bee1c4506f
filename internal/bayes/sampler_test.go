package bayes

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// sampleReference is the uncompiled forward sampler the Sampler
// replaced: it walks the network's CPTs directly and draws each node by a
// cumulative scan of its raw row, falling back to a uniform draw when the
// row's mass runs out. It stays as the oracle for the compiled tables.
func sampleReference(n *Network, rng *rand.Rand, buf []int) []int {
	for i := range n.Vars {
		cpt := n.CPTs[i]
		j := 0
		for k, p := range n.Parents[i] {
			j = j*cpt.ParentCard[k] + buf[p]
		}
		row := cpt.Rows[j]
		x := rng.Float64()
		cum := 0.0
		buf[i] = -1
		for k, p := range row {
			cum += p
			if x < cum {
				buf[i] = k
				break
			}
		}
		if buf[i] < 0 {
			buf[i] = rng.Intn(len(row))
		}
	}
	return buf[:len(n.Vars)]
}

// TestSamplerMatchesNetworkSample pins that the compiled sampler draws
// the exact sequence the uncompiled reference draws for the same rng:
// both consume one uniform per node from normalized rows.
func TestSamplerMatchesNetworkSample(t *testing.T) {
	net := sprinklerNetwork()
	s := net.NewSampler()
	r1 := rand.New(rand.NewSource(7))
	r2 := rand.New(rand.NewSource(7))
	buf1 := make([]int, net.NumVars())
	buf2 := make([]int, net.NumVars())
	for i := 0; i < 2000; i++ {
		a := sampleReference(net, r1, buf1)
		b := s.SampleInto(r2, buf2)
		for k := range a {
			if a[k] != b[k] {
				t.Fatalf("draw %d differs at var %d: %v vs %v", i, k, a, b)
			}
		}
	}
}

// TestNoEvidenceSamplerIsExact pins that, with no evidence, the sampler
// compiles every node straight from its CPT: NewSampler's tables are
// bit-equal to tables built from the CPT rows, NewCondSampler with nil or
// empty evidence returns tables bit-equal to NewSampler's, and all three
// draw exactly the uncompiled reference's sequence for the same rng. The
// networks are the sprinkler and a learned one with a two-parent node.
func TestNoEvidenceSamplerIsExact(t *testing.T) {
	data, vars := correlatedData(5000, 31)
	learned, err := Learn(data, nil, vars, LearnConfig{MaxParents: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(learned.Parents[3]) != 2 {
		t.Fatalf("learned Parents[D] = %v, want two parents", learned.Parents[3])
	}
	for name, net := range map[string]*Network{"sprinkler": sprinklerNetwork(), "learned": learned} {
		fwd := net.NewSampler()
		for v, cpt := range net.CPTs {
			want := newCumTable(cpt.Arity, len(cpt.Rows))
			for r, row := range cpt.Rows {
				want.setRow(r, row)
			}
			nd := fwd.nodes[v]
			if nd.v != v || !slices.Equal(nd.deps, net.Parents[v]) || !sameTable(nd.rows, want) {
				t.Fatalf("%s: NewSampler node %d is not its CPT compiled", name, v)
			}
		}
		samplers := []*Sampler{fwd}
		for _, ev := range []map[int]int{nil, {}} {
			cs, err := net.NewCondSampler(ev)
			if err != nil {
				t.Fatal(err)
			}
			if len(cs.nodes) != len(fwd.nodes) || len(cs.observed) != 0 {
				t.Fatalf("%s: NewCondSampler(%v) has %d nodes, %d observed", name, ev, len(cs.nodes), len(cs.observed))
			}
			for v := range cs.nodes {
				if a, b := cs.nodes[v], fwd.nodes[v]; a.v != b.v || !slices.Equal(a.deps, b.deps) ||
					!slices.Equal(a.depCard, b.depCard) || !sameTable(a.rows, b.rows) {
					t.Fatalf("%s: NewCondSampler(%v) node %d differs from NewSampler's", name, ev, v)
				}
			}
			samplers = append(samplers, cs)
		}
		for k, s := range samplers {
			r1 := rand.New(rand.NewSource(13))
			r2 := rand.New(rand.NewSource(13))
			buf1 := make([]int, net.NumVars())
			buf2 := make([]int, net.NumVars())
			for i := 0; i < 5000; i++ {
				if a, b := sampleReference(net, r1, buf1), s.SampleInto(r2, buf2); !slices.Equal(a, b) {
					t.Fatalf("%s: sampler %d draw %d = %v, reference %v", name, k, i, b, a)
				}
			}
		}
	}
}

// sameTable reports whether two cumulative tables are bit-equal.
func sameTable(a, b cumTable) bool {
	return a.arity == b.arity && a.bits == b.bits && slices.Equal(a.guide, b.guide) &&
		slices.EqualFunc(a.cum, b.cum, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// TestCumTableMatchesScan pins the guided lookup to the plain scan it
// shortens: for every row, at every bucket edge of its guide, one float
// step to either side of it, every cumulative value and its neighbours,
// and random points, cumTable.index returns what cumIndex returns. The
// rows include categories far narrower than a bucket, cumulative values
// that fall exactly on bucket edges, all-zero rows, rows whose total
// overflows to +Inf (one of them normalizing to NaN), and single
// categories.
func TestCumTableMatchesScan(t *testing.T) {
	rows := [][]float64{
		{1},
		{0},
		{0.25, 0.75},
		{0.5, 0.25, 0.125, 0.125},
		{0.6, 0.3, 0.1},
		{0.25, 0.25},
		{0, 0, 0},
		{0, 1, 0, 0, 0},
		{1e-9, 1 - 2e-9, 1e-9},
		{math.MaxFloat64, math.MaxFloat64, 1},
		{1, math.Inf(1), 1},
		{0.00247, 0.00247, 0.00247, 0.00247, 0.0707, 0.0351, 0.0331, 0.0311, 0.0262, 0.646, 0.00148, 0.00148},
	}
	rng := rand.New(rand.NewSource(3))
	for n := 0; n < 20; n++ {
		row := make([]float64, 1+rng.Intn(40))
		for k := range row {
			if rng.Intn(3) > 0 {
				row[k] = rng.ExpFloat64()
			}
		}
		rows = append(rows, row)
	}
	for ri, p := range rows {
		tab := newCumTable(len(p), 2)
		tab.setRow(1, p)
		cum := tab.row(1)
		var xs []float64
		for j := 0; j <= int(tab.scale); j++ {
			edge := float64(j) / tab.scale
			xs = append(xs, edge, math.Nextafter(edge, 0), math.Nextafter(edge, 1))
		}
		for _, c := range cum {
			xs = append(xs, c, math.Nextafter(c, 0), math.Nextafter(c, 1))
		}
		for n := 0; n < 2000; n++ {
			xs = append(xs, rng.Float64())
		}
		for _, x := range xs {
			if x < 0 || x >= 1 || math.IsNaN(x) {
				continue
			}
			if got, want := tab.index(1, x), cumIndex(cum, x); got != want {
				t.Fatalf("row %d %v at x=%v: guided index %d, scan %d", ri, p, x, got, want)
			}
		}
	}
}

// cumIndex returns the first index whose cumulative value exceeds x, or
// -1 when none does: the plain scan the guide shortens.
func cumIndex(cum []float64, x float64) int {
	for k, c := range cum {
		if x < c {
			return k
		}
	}
	return -1
}

// TestSamplerMarginals checks the compiled sampler reproduces the
// network's marginals empirically.
func TestSamplerMarginals(t *testing.T) {
	net := sprinklerNetwork()
	s := net.NewSampler()
	rng := rand.New(rand.NewSource(3))
	const n = 20000
	wet := 0
	buf := make([]int, s.NumVars())
	for i := 0; i < n; i++ {
		s.SampleInto(rng, buf)
		if buf[2] == 1 {
			wet++
		}
	}
	want := 0.8*(0.6*0+0.4*0.9) + 0.2*(0.99*0.8+0.01*0.99)
	if got := float64(wet) / n; math.Abs(got-want) > 0.02 {
		t.Errorf("P(Wet=1) sampled %v, want %v", got, want)
	}
}

// TestCondSamplerMatchesQueryPosterior checks the compiled conditional
// sampler draws from the exact posterior: the empirical P(Rain | Wet=1)
// must match variable elimination's answer, for evidence on a DOWNSTREAM
// variable (influence flowing backwards).
func TestCondSamplerMatchesQueryPosterior(t *testing.T) {
	net := sprinklerNetwork()
	cs, err := net.NewCondSampler(map[int]int{2: 1})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	const n = 20000
	rain := 0
	buf := make([]int, cs.NumVars())
	for i := 0; i < n; i++ {
		cs.SampleInto(rng, buf)
		if buf[2] != 1 {
			t.Fatal("evidence not respected")
		}
		if buf[0] == 1 {
			rain++
		}
	}
	want, err := net.Query(0, map[int]int{2: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := float64(rain) / n; math.Abs(got-want[1]) > 0.02 {
		t.Errorf("P(Rain=1|Wet=1) sampled %v, want %v", got, want[1])
	}
}

// TestCondSamplerJointPosterior cross-checks a full joint configuration
// probability under evidence against hand-computed values, so the
// chain-factorized tables compose correctly rather than just matching
// per-variable marginals.
func TestCondSamplerJointPosterior(t *testing.T) {
	net := sprinklerNetwork()
	cs, err := net.NewCondSampler(map[int]int{2: 1})
	if err != nil {
		t.Fatal(err)
	}
	// P(R, S | W=1) for all four (R, S) configurations.
	joint := func(r, s int) float64 {
		pr := []float64{0.8, 0.2}[r]
		ps := net.CPTs[1].Rows[r][s]
		pw := net.CPTs[2].Rows[r*2+s][1]
		return pr * ps * pw
	}
	den := 0.0
	for r := 0; r < 2; r++ {
		for s := 0; s < 2; s++ {
			den += joint(r, s)
		}
	}
	rng := rand.New(rand.NewSource(5))
	const n = 40000
	counts := map[[2]int]int{}
	buf := make([]int, cs.NumVars())
	for i := 0; i < n; i++ {
		cs.SampleInto(rng, buf)
		counts[[2]int{buf[0], buf[1]}]++
	}
	for r := 0; r < 2; r++ {
		for s := 0; s < 2; s++ {
			want := joint(r, s) / den
			got := float64(counts[[2]int{r, s}]) / n
			if math.Abs(got-want) > 0.02 {
				t.Errorf("P(R=%d,S=%d|W=1) sampled %v, want %v", r, s, got, want)
			}
		}
	}
}

// TestCondSamplerErrors pins construction-time rejection of invalid and
// impossible evidence.
func TestCondSamplerErrors(t *testing.T) {
	net := sprinklerNetwork()
	if _, err := net.NewCondSampler(map[int]int{0: 9}); err == nil {
		t.Error("expected error for out-of-range evidence value")
	}
	if _, err := net.NewCondSampler(map[int]int{-1: 0}); err == nil {
		t.Error("expected error for out-of-range evidence variable")
	}
	// Wet=1 with Rain=0, Sprinkler=0 has probability zero.
	if _, err := net.NewCondSampler(map[int]int{0: 0, 1: 0, 2: 1}); err == nil {
		t.Error("expected zero-probability-evidence error")
	}
}

// TestCondSamplerAllObserved covers the degenerate case of every
// variable observed: sampling just copies the evidence.
func TestCondSamplerAllObserved(t *testing.T) {
	net := sprinklerNetwork()
	cs, err := net.NewCondSampler(map[int]int{0: 1, 1: 0, 2: 1})
	if err != nil {
		t.Fatal(err)
	}
	got := cs.SampleInto(rand.New(rand.NewSource(1)), make([]int, 3))
	if got[0] != 1 || got[1] != 0 || got[2] != 1 {
		t.Errorf("all-observed sample = %v", got)
	}
}

// TestSampleRowDegenerateUniform is the bias regression test: a row
// whose probabilities under-sum (all-zero, or float drift) must not hand
// the missing mass to the last category. An early sampler did: a
// {0.25, 0.25} row sampled category 1 75% of the time. The compiled
// tables renormalize such a row, and an all-zero row falls back to a
// uniform draw.
func TestSampleRowDegenerateUniform(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	sampleRow := func(rng *rand.Rand, row []float64) int {
		tab := newCumTable(len(row), 1)
		tab.setRow(0, row)
		return tab.sample(rng, 0)
	}
	const n = 40000
	cases := []struct {
		name string
		row  []float64
	}{
		{"under-summing", []float64{0.25, 0.25}},
		{"all-zero", []float64{0, 0}},
	}
	for _, tc := range cases {
		last := 0
		for i := 0; i < n; i++ {
			if sampleRow(rng, tc.row) == 1 {
				last++
			}
		}
		if got := float64(last) / n; math.Abs(got-0.5) > 0.02 {
			t.Errorf("%s row: P(last category) = %v, want ~0.5", tc.name, got)
		}
	}
	// Healthy rows are untouched by the fallback.
	zero := 0
	row := []float64{0.9, 0.1}
	for i := 0; i < n; i++ {
		if sampleRow(rng, row) == 0 {
			zero++
		}
	}
	if got := float64(zero) / n; math.Abs(got-0.9) > 0.02 {
		t.Errorf("healthy row: P(0) = %v, want ~0.9", got)
	}
}

// TestValidateRejectsAllZeroRow pins the Validate error for rows with no
// probability mass.
func TestValidateRejectsAllZeroRow(t *testing.T) {
	net := sprinklerNetwork()
	net.CPTs[1].Rows[1] = []float64{0, 0}
	err := net.Validate()
	if err == nil {
		t.Fatal("expected Validate to reject an all-zero CPT row")
	}
	if want := "all zero"; !contains(err.Error(), want) {
		t.Errorf("error %q does not mention %q", err, want)
	}
}

// TestRenormalize pins the load-time healing path: drifted rows are
// rescaled to sum to one, already-normalized rows are left bit-identical,
// and all-zero rows are rejected.
func TestRenormalize(t *testing.T) {
	net := sprinklerNetwork()
	net.CPTs[1].Rows[0] = []float64{0.3, 0.3} // sums to 0.6
	keep := append([]float64(nil), net.CPTs[0].Rows[0]...)
	if err := net.Renormalize(); err != nil {
		t.Fatal(err)
	}
	row := net.CPTs[1].Rows[0]
	if math.Abs(row[0]-0.5) > 1e-12 || math.Abs(row[1]-0.5) > 1e-12 {
		t.Errorf("renormalized row = %v, want {0.5, 0.5}", row)
	}
	for k, v := range net.CPTs[0].Rows[0] {
		if v != keep[k] {
			t.Errorf("already-normalized row changed: %v vs %v", net.CPTs[0].Rows[0], keep)
		}
	}
	if err := net.Validate(); err != nil {
		t.Errorf("renormalized network fails Validate: %v", err)
	}

	net.CPTs[2].Rows[3] = []float64{0, 0}
	if err := net.Renormalize(); err == nil {
		t.Error("expected Renormalize to reject an all-zero row")
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
