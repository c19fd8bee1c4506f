package bayes

import (
	"fmt"
	"math"
	"sort"
)

// Variable describes one categorical variable of the network (one address
// segment in Entropy/IP's use).
type Variable struct {
	// Name is a human-readable identifier (the segment label).
	Name string `json:"name"`
	// Arity is the number of categories the variable can take.
	Arity int `json:"arity"`
}

// CPT is the conditional probability table of one node: the distribution of
// the node given each configuration of its parents. Rows are indexed by the
// parent configuration (parents in the node's Parents order, first parent
// varying slowest); each row has Arity probabilities summing to one.
type CPT struct {
	// ParentCard holds the cardinalities of the node's parents, in order.
	ParentCard []int `json:"parent_card"`
	// Arity is the node's own cardinality.
	Arity int `json:"arity"`
	// Rows[r][k] = P(node = k | parent configuration r).
	Rows [][]float64 `json:"rows"`
}

// RowIndex converts parent values (in parent order) to a row index.
func (c *CPT) RowIndex(parentValues []int) int {
	idx := 0
	for i, v := range parentValues {
		if v < 0 || v >= c.ParentCard[i] {
			panic(fmt.Sprintf("bayes: parent value %d out of range (card %d)", v, c.ParentCard[i]))
		}
		idx = idx*c.ParentCard[i] + v
	}
	return idx
}

// NumRows returns the number of parent configurations.
func (c *CPT) NumRows() int {
	n := 1
	for _, card := range c.ParentCard {
		n *= card
	}
	return n
}

// Network is a Bayesian network over an ordered list of categorical
// variables where the parents of node i are a subset of nodes 0..i-1 (the
// ordering constraint Entropy/IP imposes: a segment can only depend on
// segments to its left).
type Network struct {
	Vars    []Variable `json:"vars"`
	Parents [][]int    `json:"parents"`
	CPTs    []*CPT     `json:"cpts"`
}

// Structure selects how the network structure is chosen during learning.
type Structure int

// Structure choices.
const (
	// StructureLearned performs score-based search over parent sets within
	// the ordering constraint (the system's default).
	StructureLearned Structure = iota
	// StructureIndependent forces every node to have no parents (segments
	// modeled independently) — an ablation baseline.
	StructureIndependent
	// StructureChain forces each node's only parent to be its immediate
	// predecessor (a first-order Markov chain over segments) — the MM
	// alternative discussed in §4.5 of the paper.
	StructureChain
)

// LearnConfig controls structure learning and parameter fitting. Model
// files persist it under its JSON tags.
type LearnConfig struct {
	// MaxParents bounds the number of parents per node, in
	// 0..MaxParentsLimit (0 selects the default, 2).
	MaxParents int `json:"max_parents,omitempty"`
	// EquivalentSampleSize is the BDeu prior strength (default 1.0).
	EquivalentSampleSize float64 `json:"equivalent_sample_size,omitempty"`
	// Pseudocount is the Dirichlet smoothing added to every CPT cell when
	// fitting parameters (default 0.5). It keeps generation from assigning
	// exactly zero probability to configurations not seen in training.
	Pseudocount float64 `json:"pseudocount,omitempty"`
	// MaxParentConfigs bounds the number of parent configurations (product
	// of parent arities) a candidate parent set may induce, in
	// 0..MaxParentConfigsLimit (0 selects the default, 4096); larger sets
	// would overfit and blow up CPT size.
	MaxParentConfigs int `json:"max_parent_configs,omitempty"`
	// Structure selects learned vs forced structures (default learned).
	Structure Structure `json:"structure,omitempty"`
	// Score selects the structure score (default BDeu).
	Score Score `json:"score,omitempty"`
}

// MaxParentsLimit is the largest MaxParents Learn accepts. Structure
// search scores every parent set of at most MaxParents earlier nodes, so
// the limit bounds its work: for 32 segments at MaxParents 4 that is
// C(32,2)+C(32,3)+C(32,4)+C(32,5) = 242,792 candidate sets, each one
// pass over the rows. MaxParents arrives in untrusted requests and model
// files, so the bound is enforced, not advised.
const MaxParentsLimit = 4

// MaxParentConfigsLimit is the largest MaxParentConfigs Learn accepts.
// Scoring a candidate parent set allocates one familyCounts cell per
// parent configuration and node value, so the limit bounds that buffer to
// 2^16 float64s (512 KiB) per value of the node: 8 MiB for a node of
// arity 16. MaxParentConfigs arrives in model files, which refresh
// retrains reuse, so the bound is enforced, not advised.
const MaxParentConfigsLimit = 1 << 16

// Score selects the scoring function used for structure learning.
type Score int

// Available structure scores.
const (
	// ScoreBDeu is the Bayesian Dirichlet equivalent uniform score.
	ScoreBDeu Score = iota
	// ScoreBIC is the Bayesian information criterion.
	ScoreBIC
)

func (c LearnConfig) maxParents() int {
	if c.MaxParents <= 0 {
		return 2
	}
	return c.MaxParents
}

func (c LearnConfig) ess() float64 {
	if c.EquivalentSampleSize <= 0 {
		return 1.0
	}
	return c.EquivalentSampleSize
}

func (c LearnConfig) pseudocount() float64 {
	if c.Pseudocount <= 0 {
		return 0.5
	}
	return c.Pseudocount
}

func (c LearnConfig) maxParentConfigs() int {
	if c.MaxParentConfigs <= 0 {
		return 4096
	}
	return c.MaxParentConfigs
}

// Validate checks the bounds Learn enforces: MaxParents in
// 0..MaxParentsLimit and MaxParentConfigs in 0..MaxParentConfigsLimit
// (0 selects the default). Learn calls it first; callers holding options
// from untrusted requests or model files call it before queuing work.
func (c LearnConfig) Validate() error {
	if c.MaxParents < 0 || c.MaxParents > MaxParentsLimit {
		return fmt.Errorf("bayes: MaxParents %d outside 0..%d", c.MaxParents, MaxParentsLimit)
	}
	if c.MaxParentConfigs < 0 || c.MaxParentConfigs > MaxParentConfigsLimit {
		return fmt.Errorf("bayes: MaxParentConfigs %d outside 0..%d", c.MaxParentConfigs, MaxParentConfigsLimit)
	}
	return nil
}

// maxTotalCount bounds the sum of the row counts Learn accepts: below
// 2^53 every count total is an exact float64, so family scores do not
// depend on the order rows are added in.
const maxTotalCount = 1 << 53

// Learn learns a Bayesian network from complete categorical data. rows
// holds one observation per row and one column per variable; values must
// lie in [0, arity). vars supplies names and arities in column order.
// counts[r] is how many times row r was observed and must be at least 1;
// nil counts every row once. Learning from distinct rows and their counts
// gives exactly the network learning from the rows repeated would: every
// statistic is a sum of integer counts, exact in float64 below 2^53 in
// any order. A cfg that Validate refuses is an error.
func Learn(rows [][]int, counts []int, vars []Variable, cfg LearnConfig) (*Network, error) {
	n := len(vars)
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	for _, v := range vars {
		if v.Arity <= 0 {
			return nil, fmt.Errorf("bayes: variable %q has non-positive arity", v.Name)
		}
	}
	if counts != nil && len(counts) != len(rows) {
		return nil, fmt.Errorf("bayes: %d counts for %d rows", len(counts), len(rows))
	}
	for r, row := range rows {
		if len(row) != n {
			return nil, fmt.Errorf("bayes: row %d has %d columns, want %d", r, len(row), n)
		}
		for i, v := range row {
			if v < 0 || v >= vars[i].Arity {
				return nil, fmt.Errorf("bayes: row %d column %d value %d out of range [0,%d)", r, i, v, vars[i].Arity)
			}
		}
		if counts != nil && counts[r] < 1 {
			return nil, fmt.Errorf("bayes: row %d has count %d, want at least 1", r, counts[r])
		}
	}
	d := data{rows: rows, counts: counts, total: len(rows)}
	if counts == nil {
		d.counts = make([]int, len(rows))
		for r := range d.counts {
			d.counts[r] = 1
		}
	} else {
		d.total = 0
		for r, c := range counts {
			if c > maxTotalCount-d.total {
				return nil, fmt.Errorf("bayes: row %d takes the count total past 2^53", r)
			}
			d.total += c
		}
	}

	net := &Network{
		Vars:    append([]Variable(nil), vars...),
		Parents: make([][]int, n),
		CPTs:    make([]*CPT, n),
	}
	for i := 0; i < n; i++ {
		var parents []int
		switch cfg.Structure {
		case StructureIndependent:
			parents = nil
		case StructureChain:
			if i > 0 {
				parents = []int{i - 1}
			}
		default:
			parents = bestParents(d, vars, i, cfg)
		}
		net.Parents[i] = parents
		net.CPTs[i] = fitCPT(d, vars, i, parents, cfg.pseudocount())
	}
	return net, nil
}

// data is Learn's validated input: the rows, each row's count (never
// nil here) and the count total.
type data struct {
	rows   [][]int
	counts []int
	total  int
}

// bestParents searches all parent subsets of {0..i-1} with at most
// MaxParents elements and returns the highest-scoring one. With the
// ordering fixed, per-node searches are independent, so this is an exact
// search over the constrained structure space (the same space BNFinder
// searches for this problem). Subsets are visited depth first; parent
// sets past the MaxParentConfigs budget are skipped unscored.
func bestParents(d data, vars []Variable, node int, cfg LearnConfig) []int {
	best := []int(nil)
	bestScore := scoreFamily(d, vars, node, nil, cfg)
	maxP, budget := cfg.maxParents(), cfg.maxParentConfigs()
	var rec func(start int, chosen []int)
	rec = func(start int, chosen []int) {
		if len(chosen) > 0 && parentConfigs(vars, chosen, budget) <= budget {
			s := scoreFamily(d, vars, node, chosen, cfg)
			if s > bestScore+1e-9 || (s > bestScore-1e-9 && less(chosen, best)) {
				bestScore = s
				best = append([]int(nil), chosen...)
			}
		}
		if len(chosen) >= maxP {
			return
		}
		for c := start; c < node; c++ {
			rec(c+1, append(chosen, c))
		}
	}
	rec(0, nil)
	sort.Ints(best)
	return best
}

// less provides a deterministic tie-break: prefer fewer parents, then
// lexicographically smaller parent sets. A nil best is never preferred.
func less(a, b []int) bool {
	if b == nil {
		return false
	}
	if len(a) != len(b) {
		return len(a) < len(b)
	}
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// parentConfigs returns the number of configurations of parents (the
// product of their arities), or limit+1 once the product passes limit,
// so that no parent set can overflow it.
func parentConfigs(vars []Variable, parents []int, limit int) int {
	q := 1
	for _, p := range parents {
		a := vars[p].Arity
		if q > limit/a {
			return limit + 1
		}
		q *= a
	}
	return q
}

// familyCounts returns N_jk, the total count of rows with parent
// configuration j (of q) and node value k, in one flat q×r buffer at
// cells[j*r+k]. Each cell is a sum of integer counts below 2^53, so it
// is exact.
func familyCounts(d data, vars []Variable, node int, parents []int, q int) []float64 {
	r := vars[node].Arity
	cells := make([]float64, q*r)
	for i, row := range d.rows {
		j := 0
		for _, p := range parents {
			j = j*vars[p].Arity + row[p]
		}
		cells[j*r+row[node]] += float64(d.counts[i])
	}
	return cells
}

// scoreFamily scores node with the given parent set, which must lie
// within the MaxParentConfigs budget, against the data.
func scoreFamily(d data, vars []Variable, node int, parents []int, cfg LearnConfig) float64 {
	r := vars[node].Arity
	q := parentConfigs(vars, parents, cfg.maxParentConfigs())
	cells := familyCounts(d, vars, node, parents, q)
	switch cfg.Score {
	case ScoreBIC:
		return bicScore(cells, d.total, q, r)
	default:
		return bdeuScore(cells, cfg.ess(), q, r)
	}
}

// bdeuScore computes the BDeu family score with equivalent sample size ess.
// A parent configuration with no rows, and a cell with count 0, add
// lgamma(a) - lgamma(a+0) = exactly 0, so both are skipped: the sum, taken
// in the same order, is unchanged.
func bdeuScore(cells []float64, ess float64, q, r int) float64 {
	alphaJ := ess / float64(q)
	alphaJK := ess / float64(q*r)
	lgJ, lgJK := lgamma(alphaJ), lgamma(alphaJK)
	score := 0.0
	for j := 0; j < q; j++ {
		row := cells[j*r : (j+1)*r]
		nj := 0.0
		for _, c := range row {
			nj += c
		}
		if nj == 0 {
			continue
		}
		score += lgJ - lgamma(alphaJ+nj)
		for _, c := range row {
			if c != 0 {
				score += lgamma(alphaJK+c) - lgJK
			}
		}
	}
	return score
}

// bicScore computes the BIC family score over n observations:
// log-likelihood minus the complexity penalty (q·(r−1) free parameters).
func bicScore(cells []float64, n, q, r int) float64 {
	ll := 0.0
	for j := 0; j < q; j++ {
		row := cells[j*r : (j+1)*r]
		nj := 0.0
		for _, c := range row {
			nj += c
		}
		if nj == 0 {
			continue
		}
		for _, c := range row {
			if c > 0 {
				ll += c * math.Log(c/nj)
			}
		}
	}
	if n <= 0 {
		n = 1
	}
	penalty := 0.5 * math.Log(float64(n)) * float64(q*(r-1))
	return ll - penalty
}

func lgamma(x float64) float64 {
	v, _ := math.Lgamma(x)
	return v
}

// fitCPT estimates the node's conditional probability table from the data
// using Dirichlet (add-pseudocount) smoothing over the family counts.
func fitCPT(d data, vars []Variable, node int, parents []int, pseudocount float64) *CPT {
	r := vars[node].Arity
	parentCard := make([]int, len(parents))
	for i, p := range parents {
		parentCard[i] = vars[p].Arity
	}
	cpt := &CPT{ParentCard: parentCard, Arity: r}
	q := cpt.NumRows()
	cells := familyCounts(d, vars, node, parents, q)

	cpt.Rows = make([][]float64, q)
	for j := range cpt.Rows {
		row := make([]float64, r)
		for k := range row {
			row[k] = pseudocount + cells[j*r+k]
		}
		sum := 0.0
		for _, v := range row {
			sum += v
		}
		for k := range row {
			row[k] /= sum
		}
		cpt.Rows[j] = row
	}
	return cpt
}

// NumVars returns the number of variables in the network.
func (n *Network) NumVars() int { return len(n.Vars) }

// Validate checks structural invariants: parents precede their children,
// CPT shapes match the declared arities, and every CPT row is a probability
// distribution.
func (n *Network) Validate() error {
	if len(n.Parents) != len(n.Vars) || len(n.CPTs) != len(n.Vars) {
		return fmt.Errorf("bayes: inconsistent network shape")
	}
	for i, parents := range n.Parents {
		for _, p := range parents {
			if p < 0 || p >= i {
				return fmt.Errorf("bayes: node %d has invalid parent %d (ordering constraint)", i, p)
			}
		}
		cpt := n.CPTs[i]
		if cpt == nil {
			return fmt.Errorf("bayes: node %d has no CPT", i)
		}
		if cpt.Arity != n.Vars[i].Arity {
			return fmt.Errorf("bayes: node %d CPT arity %d != %d", i, cpt.Arity, n.Vars[i].Arity)
		}
		if len(cpt.ParentCard) != len(parents) {
			return fmt.Errorf("bayes: node %d CPT has %d parents, want %d", i, len(cpt.ParentCard), len(parents))
		}
		for k, p := range parents {
			if cpt.ParentCard[k] != n.Vars[p].Arity {
				return fmt.Errorf("bayes: node %d parent %d cardinality mismatch", i, p)
			}
		}
		if len(cpt.Rows) != cpt.NumRows() {
			return fmt.Errorf("bayes: node %d CPT has %d rows, want %d", i, len(cpt.Rows), cpt.NumRows())
		}
		for j, row := range cpt.Rows {
			if len(row) != cpt.Arity {
				return fmt.Errorf("bayes: node %d CPT row %d has %d entries", i, j, len(row))
			}
			sum := 0.0
			for _, v := range row {
				if v < 0 || math.IsNaN(v) {
					return fmt.Errorf("bayes: node %d CPT row %d has invalid probability", i, j)
				}
				sum += v
			}
			if sum == 0 {
				// Distinguish the all-zero case: it cannot be renormalized
				// and sampling from it would be undefined.
				return fmt.Errorf("bayes: node %d CPT row %d is all zero", i, j)
			}
			if math.Abs(sum-1) > 1e-6 {
				return fmt.Errorf("bayes: node %d CPT row %d sums to %v", i, j, sum)
			}
		}
	}
	return nil
}

// renormalizeTolerance is the |sum-1| beyond which Renormalize rescales
// a row. It sits far above the few-ULP drift our own learn/encode/decode
// cycle produces — rows within it are left bit-untouched, so a
// save→load→save round trip stays byte-identical — and far below any
// drift a truncating writer or hand edit introduces.
const renormalizeTolerance = 1e-9

// Renormalize rescales CPT rows that do not sum to one (beyond
// renormalizeTolerance). Learned networks are normalized by
// construction; rows written by truncating tools or edited by hand may
// be arbitrarily far off, and renormalizing them at load time keeps
// sampling unbiased without per-draw correction. All-zero and invalid
// rows are rejected — there is no distribution to recover.
func (n *Network) Renormalize() error {
	for i, cpt := range n.CPTs {
		if cpt == nil {
			return fmt.Errorf("bayes: node %d has no CPT", i)
		}
		for j, row := range cpt.Rows {
			sum := 0.0
			for _, v := range row {
				if v < 0 || math.IsNaN(v) {
					return fmt.Errorf("bayes: node %d CPT row %d has invalid probability", i, j)
				}
				sum += v
			}
			if sum <= 0 {
				return fmt.Errorf("bayes: node %d CPT row %d is all zero", i, j)
			}
			if math.Abs(sum-1) > renormalizeTolerance {
				for k := range row {
					row[k] /= sum
				}
			}
		}
	}
	return nil
}

// Scorer evaluates the network's log-likelihood of complete categorical
// rows with table lookups only. Each node holds its parents' indices and
// cardinalities and one flat log-CPT, row-major by parent configuration,
// so scoring a row makes no allocation and takes no logarithm. A Scorer
// is immutable and safe for concurrent use; it reflects the CPTs at the
// time NewScorer ran.
type Scorer struct {
	nodes []scoreNode
}

// scoreNode is one node's share of a Scorer.
type scoreNode struct {
	parents []int
	cards   []int
	arity   int
	// logp[r*arity+k] is log P(node = k | parent configuration r), with
	// probabilities <= 0 floored at 1e-300.
	logp []float64
}

// NewScorer precomputes the network's log-CPTs.
func (n *Network) NewScorer() *Scorer {
	s := &Scorer{nodes: make([]scoreNode, len(n.Vars))}
	for i, cpt := range n.CPTs {
		nd := scoreNode{
			parents: append([]int(nil), n.Parents[i]...),
			cards:   append([]int(nil), cpt.ParentCard...),
			arity:   cpt.Arity,
		}
		nd.logp = make([]float64, 0, len(cpt.Rows)*cpt.Arity)
		for _, row := range cpt.Rows {
			for _, p := range row {
				if p <= 0 {
					p = 1e-300
				}
				nd.logp = append(nd.logp, math.Log(p))
			}
		}
		s.nodes[i] = nd
	}
	return s
}

// Add returns ll plus the log-likelihood of one row of codes (one value
// per variable, in variable order). The terms are added to ll one node at
// a time in node order. A parent or node value outside its cardinality
// panics, as CPT.RowIndex does.
func (s *Scorer) Add(ll float64, codes []int) float64 {
	for i := range s.nodes {
		nd := &s.nodes[i]
		r := 0
		for k, p := range nd.parents {
			v, card := codes[p], nd.cards[k]
			if v < 0 || v >= card {
				panic(fmt.Sprintf("bayes: parent value %d out of range (card %d)", v, card))
			}
			r = r*card + v
		}
		v := codes[i]
		if v < 0 || v >= nd.arity {
			panic(fmt.Sprintf("bayes: value %d of node %d out of range (arity %d)", v, i, nd.arity))
		}
		ll += nd.logp[r*nd.arity+v]
	}
	return ll
}

// Edges returns all directed edges (parent, child) of the network.
func (n *Network) Edges() [][2]int {
	var out [][2]int
	for child, parents := range n.Parents {
		for _, p := range parents {
			out = append(out, [2]int{p, child})
		}
	}
	return out
}
