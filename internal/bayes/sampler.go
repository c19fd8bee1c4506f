package bayes

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
)

// Sampler is a compiled forward sampler over a network: every node's CPT
// is flattened into per-row cumulative probability tables built once, so
// a draw is a walk over the nodes doing one row lookup and one cumulative
// scan each — no per-draw maps, factors or allocations. A Sampler is
// immutable after construction and safe to share across goroutines; each
// goroutine supplies its own rand.Rand and assignment buffer.
type Sampler struct {
	nodes []samplerNode
}

type samplerNode struct {
	// parents are the node's parent variable indices; under the network's
	// ordering constraint they always precede the node, so the assignment
	// buffer's prefix supplies every parent value.
	parents    []int
	parentCard []int
	arity      int
	// cum holds NumRows normalized cumulative rows of length arity each.
	cum []float64
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
			arity:      cpt.Arity,
			cum:        make([]float64, len(cpt.Rows)*cpt.Arity),
		}
		for j, row := range cpt.Rows {
			buildCumRow(node.cum[j*cpt.Arity:(j+1)*cpt.Arity], row)
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
		buf[i] = cumSample(rng, nd.cum[j*nd.arity:(j+1)*nd.arity])
	}
	return buf[:len(s.nodes)]
}

// buildCumRow fills cum with the normalized cumulative distribution of
// row. All-zero rows are left all-zero; cumSample treats those (and any
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

// cumSample draws an index from a cumulative row. A degenerate row — all
// zero, or with cumulative mass below the drawn point from float drift —
// falls back to a uniform draw over the categories instead of silently
// returning the last one, which would bias generation toward high-index
// codes.
func cumSample(rng *rand.Rand, cum []float64) int {
	x := rng.Float64()
	for k, c := range cum {
		if x < c {
			return k
		}
	}
	return rng.Intn(len(cum))
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
	v     int
	arity int
	// deps are the earlier unobserved variables φ_v depends on;
	// rowStride[k] is deps[k]'s stride in the row index.
	deps      []int
	rowStride []int
	// cum holds one normalized cumulative row of length arity per
	// configuration of deps.
	cum []float64
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
	nd := condNode{v: v, arity: arity}
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
	nd.cum = make([]float64, rows*arity)
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
		buildCumRow(nd.cum[r*arity:(r+1)*arity], row)
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
		buf[nd.v] = cumSample(rng, nd.cum[r*nd.arity:(r+1)*nd.arity])
	}
	return buf[:cs.numVars]
}
