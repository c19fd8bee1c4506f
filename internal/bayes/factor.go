// Package bayes implements the Bayesian-network substrate Entropy/IP uses
// to model IPv6 addresses (§4.4 of the paper): categorical variables (the
// address segments), structure learning restricted to a fixed left-to-right
// ordering (a segment may depend only on earlier segments, as the paper
// constrains and as BNFinder exploits), conditional probability tables with
// Dirichlet smoothing, exact inference by variable elimination, and forward
// and conditional sampling for candidate-address generation.
package bayes

import (
	"fmt"
	"math"
)

// Factor is a non-negative function over a set of categorical variables,
// stored as a dense table. Variables are identified by their global index
// in the network; Card[i] is the cardinality of Vars[i]. Values are laid
// out with the first variable varying slowest (row-major over Vars).
type Factor struct {
	Vars   []int
	Card   []int
	Values []float64
}

// NewFactor allocates a zero-valued factor over the given variables.
func NewFactor(vars []int, card []int) *Factor {
	if len(vars) != len(card) {
		panic("bayes: NewFactor vars/card length mismatch")
	}
	size := 1
	for _, c := range card {
		if c <= 0 {
			panic("bayes: NewFactor cardinality must be positive")
		}
		size *= c
	}
	return &Factor{
		Vars:   append([]int(nil), vars...),
		Card:   append([]int(nil), card...),
		Values: make([]float64, size),
	}
}

// index converts an assignment (one value per factor variable, in factor
// order) to a flat index.
func (f *Factor) index(assign []int) int {
	idx := 0
	for i, v := range assign {
		if v < 0 || v >= f.Card[i] {
			panic(fmt.Sprintf("bayes: assignment %d out of range for variable %d", v, f.Vars[i]))
		}
		idx = idx*f.Card[i] + v
	}
	return idx
}

// assignment converts a flat index back to an assignment.
func (f *Factor) assignment(idx int, out []int) []int {
	if out == nil {
		out = make([]int, len(f.Vars))
	}
	for i := len(f.Vars) - 1; i >= 0; i-- {
		out[i] = idx % f.Card[i]
		idx /= f.Card[i]
	}
	return out
}

// At returns the factor value for the given assignment (in factor variable
// order).
func (f *Factor) At(assign []int) float64 { return f.Values[f.index(assign)] }

// Clone returns a deep copy of the factor.
func (f *Factor) Clone() *Factor {
	return &Factor{
		Vars:   append([]int(nil), f.Vars...),
		Card:   append([]int(nil), f.Card...),
		Values: append([]float64(nil), f.Values...),
	}
}

// Product returns the factor product f·g, defined over the union of their
// variables.
func Product(f, g *Factor) *Factor {
	// Union of variables, preserving f's order then g's new ones.
	vars := append([]int(nil), f.Vars...)
	card := append([]int(nil), f.Card...)
	pos := make(map[int]int, len(vars))
	for i, v := range vars {
		pos[v] = i
	}
	for i, v := range g.Vars {
		if _, ok := pos[v]; !ok {
			pos[v] = len(vars)
			vars = append(vars, v)
			card = append(card, g.Card[i])
		}
	}
	out := NewFactor(vars, card)

	assign := make([]int, len(vars))
	fa := make([]int, len(f.Vars))
	ga := make([]int, len(g.Vars))
	for idx := range out.Values {
		out.assignment(idx, assign)
		for i, v := range f.Vars {
			fa[i] = assign[pos[v]]
		}
		for i, v := range g.Vars {
			ga[i] = assign[pos[v]]
		}
		out.Values[idx] = f.At(fa) * g.At(ga)
	}
	return out
}

// SumOut returns the factor with the given variable summed out
// (marginalized). If the factor does not mention the variable, a clone is
// returned.
func (f *Factor) SumOut(variable int) *Factor {
	vi := -1
	for i, v := range f.Vars {
		if v == variable {
			vi = i
			break
		}
	}
	if vi < 0 {
		return f.Clone()
	}
	vars := make([]int, 0, len(f.Vars)-1)
	card := make([]int, 0, len(f.Vars)-1)
	for i, v := range f.Vars {
		if i == vi {
			continue
		}
		vars = append(vars, v)
		card = append(card, f.Card[i])
	}
	out := NewFactor(vars, card)
	assign := make([]int, len(f.Vars))
	reduced := make([]int, len(vars))
	for idx, val := range f.Values {
		f.assignment(idx, assign)
		k := 0
		for i := range f.Vars {
			if i == vi {
				continue
			}
			reduced[k] = assign[i]
			k++
		}
		out.Values[out.index(reduced)] += val
	}
	return out
}

// Reduce returns the factor restricted to the given evidence: entries
// inconsistent with the evidence are dropped and the evidence variables are
// removed from the factor's scope. Evidence on variables the factor does
// not mention is ignored.
func (f *Factor) Reduce(evidence map[int]int) *Factor {
	keepIdx := make([]int, 0, len(f.Vars))
	for i, v := range f.Vars {
		if _, ok := evidence[v]; !ok {
			keepIdx = append(keepIdx, i)
		}
	}
	vars := make([]int, len(keepIdx))
	card := make([]int, len(keepIdx))
	for k, i := range keepIdx {
		vars[k] = f.Vars[i]
		card[k] = f.Card[i]
	}
	out := NewFactor(vars, card)
	assign := make([]int, len(f.Vars))
	reduced := make([]int, len(vars))
	for idx, val := range f.Values {
		f.assignment(idx, assign)
		consistent := true
		for i, v := range f.Vars {
			if ev, ok := evidence[v]; ok && assign[i] != ev {
				consistent = false
				break
			}
		}
		if !consistent {
			continue
		}
		for k, i := range keepIdx {
			reduced[k] = assign[i]
		}
		out.Values[out.index(reduced)] += val
	}
	return out
}

// Normalize scales the factor so its values sum to one; it reports whether
// the sum was positive (an all-zero factor cannot be normalized).
func (f *Factor) Normalize() bool {
	sum := 0.0
	for _, v := range f.Values {
		sum += v
	}
	if sum <= 0 || math.IsNaN(sum) {
		return false
	}
	for i := range f.Values {
		f.Values[i] /= sum
	}
	return true
}

// Sum returns the sum of all factor values.
func (f *Factor) Sum() float64 {
	sum := 0.0
	for _, v := range f.Values {
		sum += v
	}
	return sum
}
