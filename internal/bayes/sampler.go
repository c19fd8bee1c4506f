package bayes

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
)

// Sampler is a compiled forward sampler over a network: every node's CPT
// is flattened into per-row cumulative probability tables built once, so
// a draw is a walk over the nodes doing one row lookup and one guided
// cumulative scan each (cumTable) — no per-draw maps, factors or
// allocations. A Sampler is immutable after construction and safe to
// share across goroutines; each goroutine supplies its own rand.Rand and
// assignment buffer.
type Sampler struct {
	nodes []samplerNode
}

type samplerNode struct {
	// parents are the node's parent variable indices; under the network's
	// ordering constraint they always precede the node, so the assignment
	// buffer's prefix supplies every parent value.
	parents    []int
	parentCard []int
	// rows holds one row per parent configuration.
	rows cumTable
}

// NewSampler compiles the network into a forward sampler. Rows are
// renormalized while building the cumulative tables, so CPTs carrying
// float drift sample without the bias a raw cumulative scan would give
// the last category.
func (n *Network) NewSampler() *Sampler {
	s := &Sampler{nodes: make([]samplerNode, len(n.Vars))}
	for i := range n.Vars {
		cpt := n.CPTs[i]
		node := samplerNode{
			parents:    n.Parents[i],
			parentCard: cpt.ParentCard,
			rows:       newCumTable(cpt.Arity, len(cpt.Rows)),
		}
		for j, row := range cpt.Rows {
			node.rows.setRow(j, row)
		}
		s.nodes[i] = node
	}
	return s
}

// NumVars returns the number of variables the sampler assigns.
func (s *Sampler) NumVars() int { return len(s.nodes) }

// SampleInto draws one complete assignment by ancestral sampling into
// buf, which must have length >= NumVars, and returns buf[:NumVars].
func (s *Sampler) SampleInto(rng *rand.Rand, buf []int) []int {
	for i := range s.nodes {
		nd := &s.nodes[i]
		j := 0
		for k, p := range nd.parents {
			j = j*nd.parentCard[k] + buf[p]
		}
		buf[i] = nd.rows.sample(rng, j)
	}
	return buf[:len(s.nodes)]
}

// cumTable holds a node's sampling rows: normalized cumulative rows of
// length arity, and a guide per row that lets a draw skip most of the
// row's scan.
//
// A row's guide splits [0,1) into 2^bits equal buckets, at least two per
// category. Entry j holds, shifted left by one, the first index k whose
// cumulative value exceeds the bucket's start j/2^bits. A draw x in the
// bucket is at least that start, so no index before k can be the first
// whose value exceeds x, and the scan begins at k. The entry's low bit is
// set when the value at k also reaches the bucket's end (j+1)/2^bits:
// then k is the answer for every x in the bucket, and nothing is scanned.
// Scaling x by 2^bits is exact, so a draw lands in its true bucket, and a
// guided draw returns the index the plain scan from the row's first entry
// returns, for every row and every x (TestCumTableMatchesScan).
type cumTable struct {
	arity int
	bits  uint
	scale float64 // 2^bits
	cum   []float64
	guide []uint32
}

// newCumTable returns a table of rows rows of the given arity, all zero
// until setRow fills them.
func newCumTable(arity, rows int) cumTable {
	bits := uint(1)
	for 1<<bits < 2*arity {
		bits++
	}
	return cumTable{
		arity: arity,
		bits:  bits,
		scale: float64(uint64(1) << bits),
		cum:   make([]float64, rows*arity),
		guide: make([]uint32, rows<<bits),
	}
}

// row returns cumulative row r.
func (t *cumTable) row(r int) []float64 { return t.cum[r*t.arity : (r+1)*t.arity] }

// setRow fills row r, and its guide, from the probabilities p.
func (t *cumTable) setRow(r int, p []float64) {
	cum := t.row(r)
	buildCumRow(cum, p)
	guide := t.guide[r<<t.bits : (r+1)<<t.bits]
	width := 1 / t.scale // a power of two, so every bucket edge is exact
	k := 0
	for j := range guide {
		// The first index past the bucket's start never decreases from
		// one bucket to the next, so the search resumes where it stopped.
		start := float64(j) * width
		for k < len(cum) && !(start < cum[k]) {
			k++
		}
		e := uint32(k) << 1
		if k < len(cum) && cum[k] >= float64(j+1)*width {
			e |= 1
		}
		guide[j] = e
	}
}

// index returns the first index of row r whose cumulative value exceeds
// x, in [0,1), or -1 when none does.
func (t *cumTable) index(r int, x float64) int {
	e := t.guide[r<<t.bits+int(x*t.scale)]
	k := int(e >> 1)
	if e&1 != 0 {
		return k
	}
	for row := t.row(r); k < len(row); k++ {
		if x < row[k] {
			return k
		}
	}
	return -1
}

// sample draws an index from row r. A degenerate row — all zero, or with
// cumulative mass below the drawn point from float drift — falls back to
// a uniform draw over the categories instead of silently returning the
// last one, which would bias generation toward high-index codes.
func (t *cumTable) sample(rng *rand.Rand, r int) int {
	if k := t.index(r, rng.Float64()); k >= 0 {
		return k
	}
	return rng.Intn(t.arity)
}

// buildCumRow fills cum with the normalized cumulative distribution of
// row. All-zero rows are left all-zero; sampling treats those (and any
// residual drift past the final cumulative value) as a uniform draw.
func buildCumRow(cum []float64, row []float64) {
	total := 0.0
	for _, p := range row {
		if p > 0 {
			total += p
		}
	}
	if total <= 0 || math.IsNaN(total) {
		for k := range cum {
			cum[k] = 0
		}
		return
	}
	c := 0.0
	for k, p := range row {
		if p > 0 {
			c += p / total
		}
		cum[k] = c
	}
}

// CondSampler is a compiled conditional sampler: it draws complete
// assignments from the exact posterior P(X | evidence). The variable-
// elimination work that conditioning requires runs ONCE at construction —
// eliminating variables from the last to the first records, for every
// unobserved variable v, the intermediate factor φ_v over v and a subset
// of earlier variables; P(x_v | x_<v, evidence) is then a normalized row
// of φ_v, precomputed here as cumulative tables. Sampling is therefore a
// forward pass identical in cost to unconditional sampling, instead of a
// full variable elimination per variable per draw.
//
// A CondSampler is immutable after construction and safe to share across
// goroutines.
type CondSampler struct {
	numVars int
	// fixed[v] is the evidence value of v, or -1 when unobserved.
	fixed []int
	// nodes holds the unobserved variables in ascending order.
	nodes []condNode
}

type condNode struct {
	v int
	// deps are the earlier unobserved variables φ_v depends on;
	// rowStride[k] is deps[k]'s stride in the row index.
	deps      []int
	rowStride []int
	// rows holds one row per configuration of deps.
	rows cumTable
}

// NewCondSampler compiles the network, conditioned on the evidence, into
// a sampler over the posterior. Evidence maps variable index to observed
// category; it may mention any variables (influence flows both ways). It
// returns an error for invalid evidence, for evidence with zero
// probability under the network, and one wrapping ErrFactorTooLarge when
// the elimination would build a factor past the bound.
func (n *Network) NewCondSampler(evidence map[int]int) (*CondSampler, error) {
	// One backward elimination pass records φ_v for every unobserved v,
	// in descending order.
	var nodes []condNode
	factors, err := n.eliminate(evidence, -1, func(v int, phi *Factor) {
		nodes = append(nodes, compileCondNode(v, n.Vars[v].Arity, phi))
	})
	if err != nil {
		return nil, err
	}
	// What remains are variable-free constants whose product is the
	// evidence probability; reject impossible evidence up front rather
	// than sampling from all-zero rows.
	pe := 1.0
	for _, f := range factors {
		pe *= f.Sum()
	}
	if pe <= 0 || math.IsNaN(pe) {
		return nil, fmt.Errorf("bayes: evidence has zero probability")
	}
	// Sampling walks the nodes ascending.
	slices.Reverse(nodes)
	cs := &CondSampler{numVars: len(n.Vars), fixed: make([]int, len(n.Vars)), nodes: nodes}
	for v := range cs.fixed {
		cs.fixed[v] = -1
		if val, ok := evidence[v]; ok {
			cs.fixed[v] = val
		}
	}
	return cs, nil
}

// compileCondNode turns the elimination factor φ (over v and earlier
// variables) into dense cumulative rows indexed by the dep configuration.
func compileCondNode(v, arity int, phi *Factor) condNode {
	vi := -1
	for i, fv := range phi.Vars {
		if fv == v {
			vi = i
			break
		}
	}
	// Strides of each factor position in phi.Values (last varies fastest).
	phiStride := make([]int, len(phi.Vars))
	st := 1
	for i := len(phi.Vars) - 1; i >= 0; i-- {
		phiStride[i] = st
		st *= phi.Card[i]
	}
	nd := condNode{v: v}
	rows := 1
	for i, fv := range phi.Vars {
		if i == vi {
			continue
		}
		nd.deps = append(nd.deps, fv)
		rows *= phi.Card[i]
	}
	// Row-index strides over deps in their phi order (last varies fastest).
	nd.rowStride = make([]int, len(nd.deps))
	st = 1
	k := len(nd.deps) - 1
	for i := len(phi.Vars) - 1; i >= 0; i-- {
		if i == vi {
			continue
		}
		nd.rowStride[k] = st
		st *= phi.Card[i]
		k--
	}
	nd.rows = newCumTable(arity, rows)
	row := make([]float64, arity)
	assign := make([]int, len(nd.deps))
	for r := 0; r < rows; r++ {
		// Decode the row index into a dep assignment, then locate the
		// factor entries for each value of v.
		rem := r
		for i := range assign {
			assign[i] = rem / nd.rowStride[i]
			rem %= nd.rowStride[i]
		}
		base := 0
		k := 0
		for i := range phi.Vars {
			if i == vi {
				continue
			}
			base += assign[k] * phiStride[i]
			k++
		}
		for c := 0; c < arity; c++ {
			row[c] = phi.Values[base+c*phiStride[vi]]
		}
		nd.rows.setRow(r, row)
	}
	return nd
}

// NumVars returns the number of variables the sampler assigns.
func (cs *CondSampler) NumVars() int { return cs.numVars }

// SampleInto draws one complete assignment from P(X | evidence) into buf,
// which must have length >= NumVars, and returns buf[:NumVars]. Observed
// variables are set to their evidence values.
func (cs *CondSampler) SampleInto(rng *rand.Rand, buf []int) []int {
	for v, val := range cs.fixed {
		if val >= 0 {
			buf[v] = val
		}
	}
	for i := range cs.nodes {
		nd := &cs.nodes[i]
		r := 0
		for k, d := range nd.deps {
			r += buf[d] * nd.rowStride[k]
		}
		buf[nd.v] = nd.rows.sample(rng, r)
	}
	return buf[:cs.numVars]
}
