package bayes

import (
	"errors"
	"fmt"
	"maps"
	"math"
	"math/bits"
	"slices"
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

// maxFactorEntries bounds every factor variable elimination builds: 1<<22
// float64 entries, 32 MiB. Browse and evidence generation run elimination
// on models clients upload, where a small network can ask for an
// exponentially large factor; trained catalog models need at most 14,040.
const maxFactorEntries = 1 << 22

// ErrFactorTooLarge reports that exact inference under the given evidence
// would build a factor with more than maxFactorEntries entries.
var ErrFactorTooLarge = errors.New("bayes: inference needs too large a factor")

// eliminate validates the evidence, reduces every node factor by it, and
// eliminates every unobserved variable except keep (-1 for none) in
// descending index order, handing each product factor to visit (if
// non-nil) before summing its variable out. It returns the leftover
// factors: constants and factors over keep alone. Under the ordering
// constraint each product then scopes v plus earlier variables only, which
// keeps products small and is what forward sampling from them needs.
func (n *Network) eliminate(evidence map[int]int, keep int, visit func(v int, prod *Factor)) ([]*Factor, error) {
	for _, v := range sortedVars(evidence) {
		if v < 0 || v >= len(n.Vars) {
			return nil, fmt.Errorf("bayes: evidence variable %d out of range", v)
		}
		if ev := evidence[v]; ev < 0 || ev >= n.Vars[v].Arity {
			return nil, fmt.Errorf("bayes: evidence value %d out of range for variable %d", ev, v)
		}
	}
	if err := n.checkFactorSizes(evidence, keep); err != nil {
		return nil, err
	}
	factors := make([]*Factor, 0, len(n.Vars))
	for i := range n.Vars {
		factors = append(factors, n.nodeFactor(i).Reduce(evidence))
	}
	for v := len(n.Vars) - 1; v >= 0; v-- {
		if _, observed := evidence[v]; observed || v == keep {
			continue
		}
		// involved is never empty: v's own node factor mentions v.
		var involved, rest []*Factor
		for _, f := range factors {
			if slices.Contains(f.Vars, v) {
				involved = append(involved, f)
			} else {
				rest = append(rest, f)
			}
		}
		prod := involved[0]
		for _, f := range involved[1:] {
			prod = Product(prod, f)
		}
		if visit != nil {
			visit(v, prod)
		}
		factors = append(rest, prod.SumOut(v))
	}
	return factors, nil
}

// checkFactorSizes replays eliminate over factor scopes alone, as bitsets
// of w words, and returns ErrFactorTooLarge when a product factor would
// exceed maxFactorEntries. Sizes are products of arities that saturate
// past the bound, so this is integer work that cannot overflow.
func (n *Network) checkFactorSizes(evidence map[int]int, keep int) error {
	unobserved := func(u int) bool { _, ok := evidence[u]; return !ok }
	w := (len(n.Vars) + 63) / 64
	scopes := make([]uint64, len(n.Vars)*w) // the live scopes come first
	add := func(i, u int) {
		if unobserved(u) {
			scopes[i*w+u/64] |= 1 << (u % 64)
		}
	}
	for i, parents := range n.Parents {
		add(i, i)
		for _, u := range parents {
			add(i, u)
		}
	}
	live := len(n.Vars)
	for v := len(n.Vars) - 1; v >= 0; v-- {
		if !unobserved(v) || v == keep {
			continue
		}
		// OR every scope mentioning v into the first; drop the others by
		// moving the last live scope into their slot.
		prod := -1
		for k := 0; k < live; {
			s := scopes[k*w : (k+1)*w]
			switch {
			case s[v/64]&(1<<(v%64)) == 0:
				k++
			case prod < 0:
				prod, k = k, k+1
			default:
				for j, x := range s {
					scopes[prod*w+j] |= x
				}
				live--
				copy(s, scopes[live*w:(live+1)*w])
			}
		}
		p, size := scopes[prod*w:(prod+1)*w], 1
		for j, x := range p {
			for ; x != 0; x &= x - 1 {
				if a := n.Vars[j*64+bits.TrailingZeros64(x)].Arity; size > maxFactorEntries/a {
					size = maxFactorEntries + 1
				} else {
					size *= a
				}
			}
		}
		if size > maxFactorEntries {
			return fmt.Errorf("%w: eliminating variable %d needs more than %d entries", ErrFactorTooLarge, v, maxFactorEntries)
		}
		p[v/64] &^= 1 << (v % 64)
	}
	return nil
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
	factors, err := n.eliminate(evidence, target, nil)
	if err != nil {
		return nil, err
	}
	// Multiply what remains: factors over the target alone, and constants.
	result := NewFactor([]int{target}, []int{n.Vars[target].Arity})
	for i := range result.Values {
		result.Values[i] = 1
	}
	for _, f := range factors {
		result = Product(result, f)
	}
	if !result.Normalize() {
		return nil, fmt.Errorf("bayes: evidence has zero probability")
	}
	return append([]float64(nil), result.Values...), nil
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
	pb, err := n.Query(b, evidence)
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
