package bayes

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
)

// Sampler is a compiled sampler over a network, unconditional or
// conditioned on evidence: every sampled variable's distribution given
// earlier variables is flattened into per-row cumulative probability
// tables built once, so a draw sets the observed variables and then walks
// the nodes doing one row lookup and one guided cumulative scan each
// (cumTable) — no per-draw maps, factors or allocations. A Sampler is
// immutable after construction and safe to share across goroutines; each
// goroutine supplies its own rand.Rand and assignment buffer.
type Sampler struct {
	numVars int
	// observed holds the evidence as (variable, value) pairs in ascending
	// variable order.
	observed [][2]int
	// nodes holds the sampled variables in ascending order.
	nodes []samplerNode
}

type samplerNode struct {
	v int
	// deps are the earlier variables v's rows depend on; the row of a
	// configuration is its Horner index over depCard, as in a CPT.
	deps    []int
	depCard []int
	// rows holds one row per configuration of deps.
	rows cumTable
}

// NewSampler compiles the network into an unconditional sampler. With no
// evidence every variable is barren — none has an observed descendant —
// so each node's rows are its CPT rows, renormalized while building the
// cumulative tables: CPTs carrying float drift sample without the bias a
// raw cumulative scan would give the last category.
func (n *Network) NewSampler() *Sampler {
	s := &Sampler{numVars: len(n.Vars), nodes: make([]samplerNode, len(n.Vars))}
	for v, cpt := range n.CPTs {
		nd := samplerNode{
			v:       v,
			deps:    n.Parents[v],
			depCard: cpt.ParentCard,
			rows:    newCumTable(cpt.Arity, len(cpt.Rows)),
		}
		for r, row := range cpt.Rows {
			nd.rows.setRow(r, row)
		}
		s.nodes[v] = nd
	}
	return s
}

// NewCondSampler compiles the network, conditioned on the evidence, into
// a sampler over the exact posterior P(X | evidence). Evidence maps
// variable index to observed category; it may mention any variables
// (influence flows both ways). Empty evidence returns NewSampler's
// sampler. Otherwise the variable-elimination work that conditioning
// requires runs once here: eliminating variables from the last to the
// first records, for every unobserved variable v, the intermediate factor
// φ_v over v and earlier unobserved variables, and P(x_v | x_<v, evidence)
// is a normalized row of φ_v. Sampling is therefore a forward pass
// identical in cost to unconditional sampling. It returns an error for
// invalid evidence, for evidence with zero probability under the network,
// and one wrapping ErrFactorTooLarge when the elimination would build a
// factor past the bound.
func (n *Network) NewCondSampler(evidence map[int]int) (*Sampler, error) {
	if len(evidence) == 0 {
		return n.NewSampler(), nil
	}
	// One backward elimination pass records φ_v for every unobserved v,
	// in descending order.
	var nodes []samplerNode
	factors, err := n.eliminate(evidence, -1, func(v int, phi *Factor) {
		nodes = append(nodes, phiNode(v, n.Vars[v].Arity, phi))
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
	s := &Sampler{numVars: len(n.Vars), observed: make([][2]int, 0, len(evidence)), nodes: nodes}
	for v := range n.Vars {
		if val, ok := evidence[v]; ok {
			s.observed = append(s.observed, [2]int{v, val})
		}
	}
	return s, nil
}

// phiNode turns the elimination factor φ (over v and earlier variables)
// into v's node: its deps are φ's other variables in φ's order, so with
// the last varying fastest, row r's entries sit at a stride of inner (the
// configurations of the variables after v) in φ's values.
func phiNode(v, arity int, phi *Factor) samplerNode {
	vi := slices.Index(phi.Vars, v)
	nd := samplerNode{
		v:       v,
		deps:    slices.Concat(phi.Vars[:vi], phi.Vars[vi+1:]),
		depCard: slices.Concat(phi.Card[:vi], phi.Card[vi+1:]),
		rows:    newCumTable(arity, len(phi.Values)/arity),
	}
	inner := 1
	for _, c := range phi.Card[vi+1:] {
		inner *= c
	}
	row := make([]float64, arity)
	r := 0
	for hi := 0; hi < len(phi.Values); hi += arity * inner {
		for lo := range inner {
			for c := range row {
				row[c] = phi.Values[hi+c*inner+lo]
			}
			nd.rows.setRow(r, row)
			r++
		}
	}
	return nd
}

// NumVars returns the number of variables the sampler assigns.
func (s *Sampler) NumVars() int { return s.numVars }

// SampleInto draws one complete assignment into buf, which must have
// length >= NumVars, and returns buf[:NumVars]. Observed variables are
// set to their evidence values, then the others are drawn in ascending
// order, so every dependency is set before the node that reads it.
func (s *Sampler) SampleInto(rng *rand.Rand, buf []int) []int {
	buf = buf[:s.numVars]
	for _, o := range s.observed {
		buf[o[0]] = o[1]
	}
	for i := range s.nodes {
		nd := &s.nodes[i]
		r := 0
		for k, d := range nd.deps {
			r = r*nd.depCard[k] + buf[d]
		}
		buf[nd.v] = nd.rows.sample(rng, r)
	}
	return buf
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
