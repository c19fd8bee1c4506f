package bayes

import (
	"fmt"
	"maps"
	"math"
	"sort"
)

// sortedVars returns the evidence variable indices in ascending order.
// Validation walks use it so that which error surfaces first does not
// depend on map iteration order.
func sortedVars(evidence map[int]int) []int {
	vars := make([]int, 0, len(evidence))
	for v := range evidence {
		vars = append(vars, v)
	}
	sort.Ints(vars)
	return vars
}

// nodeFactor builds the factor representation of node i's CPT: a factor
// over (parents..., i).
func (n *Network) nodeFactor(i int) *Factor {
	vars := append(append([]int(nil), n.Parents[i]...), i)
	card := make([]int, len(vars))
	for k, v := range vars {
		card[k] = n.Vars[v].Arity
	}
	f := NewFactor(vars, card)
	cpt := n.CPTs[i]
	assign := make([]int, len(vars))
	for idx := range f.Values {
		f.assignment(idx, assign)
		j := 0
		for k := range n.Parents[i] {
			j = j*cpt.ParentCard[k] + assign[k]
		}
		f.Values[idx] = cpt.Rows[j][assign[len(vars)-1]]
	}
	return f
}

// Query computes the exact posterior distribution P(target | evidence) by
// variable elimination. Evidence maps variable index to observed category.
// The returned slice has one probability per category of the target.
//
// Because probabilistic influence flows both ways through the graph, the
// evidence may mention variables before or after the target — this is the
// "evidential reasoning" the paper relies on when an analyst conditions a
// later segment and watches earlier segments change (Fig. 1b→1c).
func (n *Network) Query(target int, evidence map[int]int) ([]float64, error) {
	if target < 0 || target >= len(n.Vars) {
		return nil, fmt.Errorf("bayes: target %d out of range", target)
	}
	if ev, ok := evidence[target]; ok {
		// The target is observed: a point mass.
		out := make([]float64, n.Vars[target].Arity)
		if ev < 0 || ev >= len(out) {
			return nil, fmt.Errorf("bayes: evidence %d out of range for variable %d", ev, target)
		}
		out[ev] = 1
		return out, nil
	}
	for _, v := range sortedVars(evidence) {
		if v < 0 || v >= len(n.Vars) {
			return nil, fmt.Errorf("bayes: evidence variable %d out of range", v)
		}
		if ev := evidence[v]; ev < 0 || ev >= n.Vars[v].Arity {
			return nil, fmt.Errorf("bayes: evidence value %d out of range for variable %d", ev, v)
		}
	}

	// Build all node factors, reduced by the evidence.
	factors := make([]*Factor, 0, len(n.Vars))
	for i := range n.Vars {
		factors = append(factors, n.nodeFactor(i).Reduce(evidence))
	}
	// Eliminate every hidden variable except the target, in reverse index
	// order (children before parents keeps intermediate factors small under
	// the left-to-right ordering constraint).
	for v := len(n.Vars) - 1; v >= 0; v-- {
		if v == target {
			continue
		}
		if _, observed := evidence[v]; observed {
			continue
		}
		var involved []*Factor
		var rest []*Factor
		for _, f := range factors {
			if mentions(f, v) {
				involved = append(involved, f)
			} else {
				rest = append(rest, f)
			}
		}
		if len(involved) == 0 {
			continue
		}
		prod := involved[0]
		for _, f := range involved[1:] {
			prod = Product(prod, f)
		}
		factors = append(rest, prod.SumOut(v))
	}
	// Multiply what remains (all factors now mention only the target or are
	// constants).
	result := NewFactor([]int{target}, []int{n.Vars[target].Arity})
	for i := range result.Values {
		result.Values[i] = 1
	}
	for _, f := range factors {
		result = Product(result, f)
	}
	// The result may mention only the target; normalize to a distribution.
	result = marginalTo(result, target)
	if !result.Normalize() {
		return nil, fmt.Errorf("bayes: evidence has zero probability")
	}
	return append([]float64(nil), result.Values...), nil
}

func mentions(f *Factor, v int) bool {
	for _, fv := range f.Vars {
		if fv == v {
			return true
		}
	}
	return false
}

// marginalTo sums out every variable except keep.
func marginalTo(f *Factor, keep int) *Factor {
	out := f
	for _, v := range f.Vars {
		if v != keep {
			out = out.SumOut(v)
		}
	}
	return out
}

// Posteriors returns the posterior distribution of every variable given the
// evidence: the data behind the paper's conditional probability browser
// (Fig. 1b/c and Fig. 7b, 9b, 10b).
func (n *Network) Posteriors(evidence map[int]int) ([][]float64, error) {
	out := make([][]float64, len(n.Vars))
	for i := range n.Vars {
		dist, err := n.Query(i, evidence)
		if err != nil {
			return nil, err
		}
		out[i] = dist
	}
	return out, nil
}

// ProbEvidence returns the probability of the evidence configuration,
// P(evidence), computed by variable elimination.
func (n *Network) ProbEvidence(evidence map[int]int) (float64, error) {
	for _, v := range sortedVars(evidence) {
		if ev := evidence[v]; v < 0 || v >= len(n.Vars) || ev < 0 || ev >= n.Vars[v].Arity {
			return 0, fmt.Errorf("bayes: invalid evidence %d=%d", v, ev)
		}
	}
	factors := make([]*Factor, 0, len(n.Vars))
	for i := range n.Vars {
		factors = append(factors, n.nodeFactor(i).Reduce(evidence))
	}
	for v := len(n.Vars) - 1; v >= 0; v-- {
		if _, observed := evidence[v]; observed {
			continue
		}
		var involved, rest []*Factor
		for _, f := range factors {
			if mentions(f, v) {
				involved = append(involved, f)
			} else {
				rest = append(rest, f)
			}
		}
		if len(involved) == 0 {
			continue
		}
		prod := involved[0]
		for _, f := range involved[1:] {
			prod = Product(prod, f)
		}
		factors = append(rest, prod.SumOut(v))
	}
	p := 1.0
	for _, f := range factors {
		p *= f.Sum()
	}
	return p, nil
}

// MutualInformation computes the mutual information (in bits) between two
// variables under the joint distribution encoded by the network, optionally
// conditioned on evidence. It is a convenience used to rank dependencies
// when rendering the BN graph.
func (n *Network) MutualInformation(a, b int, evidence map[int]int) (float64, error) {
	if a == b {
		return 0, fmt.Errorf("bayes: mutual information of a variable with itself")
	}
	pa, err := n.Query(a, evidence)
	if err != nil {
		return 0, err
	}
	mi := 0.0
	for va := 0; va < n.Vars[a].Arity; va++ {
		if pa[va] <= 0 {
			continue
		}
		ev := make(map[int]int, len(evidence)+1)
		maps.Copy(ev, evidence)
		ev[a] = va
		pbGivenA, err := n.Query(b, ev)
		if err != nil {
			return 0, err
		}
		pb, err := n.Query(b, evidence)
		if err != nil {
			return 0, err
		}
		for vb := 0; vb < n.Vars[b].Arity; vb++ {
			if pbGivenA[vb] <= 0 || pb[vb] <= 0 {
				continue
			}
			joint := pa[va] * pbGivenA[vb]
			mi += joint * math.Log2(pbGivenA[vb]/pb[vb])
		}
	}
	return mi, nil
}
