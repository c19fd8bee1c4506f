// Package entropy implements the information-theoretic measurements at the
// heart of Entropy/IP (§4.1 of the paper): the normalized Shannon entropy
// of each nybble position across a set of IPv6 addresses, the total entropy
// of a set, and the windowed entropy analysis shown in Fig. 5.
package entropy

import (
	"math"
	"sort"

	"entropyip/internal/ip6"
	"entropyip/internal/parallel"
)

// Shannon returns the Shannon entropy, in bits, of a discrete distribution
// given by the counts of each outcome. Zero counts are ignored. The result
// is 0 for an empty or single-outcome distribution.
func Shannon(counts []int) float64 {
	total := 0
	for _, c := range counts {
		if c > 0 {
			total += c
		}
	}
	if total == 0 {
		return 0
	}
	h := 0.0
	for _, c := range counts {
		if c <= 0 {
			continue
		}
		p := float64(c) / float64(total)
		h -= p * math.Log2(p)
	}
	return h
}

// ShannonMap returns the Shannon entropy, in bits, of a distribution
// represented as a map from outcome to count. Go map iteration is
// randomized and floating-point addition is not associative, so the sum
// runs over the counts in sorted order: the result is bit-identical
// across runs, not merely equal to rounding.
func ShannonMap[K comparable](counts map[K]int) float64 {
	vals := make([]int, 0, len(counts))
	for _, c := range counts {
		if c > 0 {
			vals = append(vals, c)
		}
	}
	sort.Ints(vals)
	return Shannon(vals)
}

// Normalized returns the entropy normalized by the maximum entropy log2(k)
// of a k-outcome distribution, as the paper does (Eq. 2). For k <= 1 the
// result is 0.
func Normalized(h float64, k int) float64 {
	if k <= 1 || h <= 0 {
		return 0
	}
	return h / math.Log2(float64(k))
}

// Profile holds the per-nybble entropy of a set of addresses.
type Profile struct {
	// H is the normalized entropy of each of the 32 nybble positions,
	// each in [0, 1]: H[i] is the entropy of nybble i (0-based) divided by
	// log2(16).
	H [ip6.NybbleCount]float64
	// Raw is the unnormalized entropy, in bits, of each nybble position.
	Raw [ip6.NybbleCount]float64
	// Counts[i][v] is the number of addresses whose nybble i has value v.
	Counts [ip6.NybbleCount][16]int
	// N is the number of addresses in the profile.
	N int
}

// NewProfile computes the per-nybble entropy profile of the addresses,
// using all available cores. The result is identical for any worker count;
// use NewProfileWorkers to bound concurrency.
func NewProfile(addrs []ip6.Addr) *Profile {
	return NewProfileWorkers(addrs, 0)
}

// nybbleCounts is the per-nybble value histogram one shard of addresses
// contributes to a profile.
type nybbleCounts [ip6.NybbleCount][16]int

// NewProfileWorkers is NewProfile with bounded concurrency: the address
// slice is split into contiguous shards counted by at most `workers`
// goroutines (<= 0 selects GOMAXPROCS), and the integer per-shard count
// matrices are merged in shard order — so the profile is bit-identical
// regardless of the worker count.
func NewProfileWorkers(addrs []ip6.Addr, workers int) *Profile {
	p := &Profile{N: len(addrs)}
	parts := parallel.MapShards(workers, len(addrs), func(s parallel.Shard) *nybbleCounts {
		var c nybbleCounts
		for _, a := range addrs[s.Start:s.End] {
			n := a.Nybbles()
			for i := 0; i < ip6.NybbleCount; i++ {
				c[i][n[i]]++
			}
		}
		return &c
	})
	for _, c := range parts {
		for i := 0; i < ip6.NybbleCount; i++ {
			for v := 0; v < 16; v++ {
				p.Counts[i][v] += c[i][v]
			}
		}
	}
	for i := 0; i < ip6.NybbleCount; i++ {
		h := Shannon(p.Counts[i][:])
		p.Raw[i] = h
		p.H[i] = Normalized(h, 16)
	}
	return p
}

// Total returns the total entropy H_S of the profile (Eq. 3): the sum of
// the normalized per-nybble entropies. It quantifies how hard it is to
// guess addresses of the set by chance.
func (p *Profile) Total() float64 {
	sum := 0.0
	for _, h := range p.H {
		sum += h
	}
	return sum
}

// Constant reports whether nybble i takes a single value across the set
// (entropy zero with at least one observation), and returns that value.
func (p *Profile) Constant(i int) (value byte, ok bool) {
	if p.N == 0 {
		return 0, false
	}
	seen := -1
	for v, c := range p.Counts[i] {
		if c > 0 {
			if seen >= 0 {
				return 0, false
			}
			seen = v
		}
	}
	if seen < 0 {
		return 0, false
	}
	return byte(seen), true
}

// MostCommon returns the most common value of nybble i and its empirical
// probability. Ties are broken toward the smaller value.
func (p *Profile) MostCommon(i int) (value byte, prob float64) {
	best, bestCount := 0, -1
	for v, c := range p.Counts[i] {
		if c > bestCount {
			best, bestCount = v, c
		}
	}
	if p.N == 0 {
		return 0, 0
	}
	return byte(best), float64(bestCount) / float64(p.N)
}

// Windowed computes the windowed entropy analysis of Fig. 5: for every
// window position (starting nybble) and window length, the unnormalized
// entropy of the string of nybbles in that window across the address set.
//
// The result is indexed as W[pos][length-1] with pos in 0..31 and length in
// 1..32-pos, i.e. W[pos] has 32-pos entries. Values are in bits
// (unnormalized, as in the paper's figure).
type Windowed [][]float64

// NewWindowed computes the windowed entropy matrix for the addresses,
// using all available cores. Cost is O(len(addrs) · 32 · 32 / 2) hash
// operations; for the sizes used in this repository (≤ 100K addresses)
// this completes in seconds. The result is identical for any worker
// count; use NewWindowedWorkers to bound concurrency.
func NewWindowed(addrs []ip6.Addr) Windowed {
	return NewWindowedWorkers(addrs, 0)
}

// NewWindowedWorkers is NewWindowed with bounded concurrency (<= 0 selects
// GOMAXPROCS). Window positions are independent — each row of the matrix
// is computed by exactly one goroutine — so the result is bit-identical
// regardless of the worker count. Positions are dispatched dynamically
// because the work per position is skewed (position 0 has 32 window
// lengths, position 31 has one).
func NewWindowedWorkers(addrs []ip6.Addr, workers int) Windowed {
	w := make(Windowed, ip6.NybbleCount)
	nybs := make([]ip6.Nybbles, len(addrs))
	for i, a := range addrs {
		nybs[i] = a.Nybbles()
	}
	parallel.ForEach(workers, ip6.NybbleCount, func(_, pos int) {
		maxLen := ip6.NybbleCount - pos
		w[pos] = make([]float64, maxLen)
		for length := 1; length <= maxLen; length++ {
			counts := make(map[string]int, 64)
			for i := range nybs {
				key := string(nybs[i][pos : pos+length])
				counts[key]++
			}
			w[pos][length-1] = ShannonMap(counts)
		}
	})
	return w
}

// Max returns the maximum entropy value in the matrix (useful for scaling
// heat-map rendering).
func (w Windowed) Max() float64 {
	max := 0.0
	for _, row := range w {
		for _, v := range row {
			if v > max {
				max = v
			}
		}
	}
	return max
}

// Distribution normalizes a count histogram into a probability
// distribution. An all-zero (or empty) histogram yields a nil slice.
func Distribution(counts []int) []float64 {
	total := 0
	for _, c := range counts {
		if c > 0 {
			total += c
		}
	}
	if total == 0 {
		return nil
	}
	out := make([]float64, len(counts))
	for i, c := range counts {
		if c > 0 {
			out[i] = float64(c) / float64(total)
		}
	}
	return out
}

// KLDivergence returns the Kullback–Leibler divergence D(p‖q) in bits.
// Outcomes where q is zero but p is not would make the divergence infinite;
// q is smoothed with eps (<= 0 selects 1e-9) so the result stays finite and
// usable as a drift signal. p and q must be the same length; probabilities
// need not be exactly normalized (each side is renormalized after
// smoothing).
func KLDivergence(p, q []float64, eps float64) float64 {
	if len(p) != len(q) || len(p) == 0 {
		return 0
	}
	if eps <= 0 {
		eps = 1e-9
	}
	pt, qt := 0.0, 0.0
	for i := range p {
		pt += p[i]
		qt += q[i] + eps
	}
	if pt <= 0 || qt <= 0 {
		return 0
	}
	d := 0.0
	for i := range p {
		pi := p[i] / pt
		if pi <= 0 {
			continue
		}
		qi := (q[i] + eps) / qt
		d += pi * math.Log2(pi/qi)
	}
	if d < 0 {
		return 0 // numeric noise on (near-)identical distributions
	}
	return d
}

// JensenShannon returns the Jensen–Shannon divergence between p and q in
// bits: JS(p,q) = H(m) − (H(p)+H(q))/2 with m the midpoint distribution.
// It is symmetric, finite without smoothing, and bounded to [0, 1] for
// base-2 logs — which makes it the natural drift score. Inputs need not be
// exactly normalized; a nil or all-zero side contributes nothing.
func JensenShannon(p, q []float64) float64 {
	n := len(p)
	if len(q) > n {
		n = len(q)
	}
	if n == 0 {
		return 0
	}
	at := func(s []float64, i int) float64 {
		if i < len(s) && s[i] > 0 {
			return s[i]
		}
		return 0
	}
	pt, qt := 0.0, 0.0
	for i := 0; i < n; i++ {
		pt += at(p, i)
		qt += at(q, i)
	}
	if pt <= 0 || qt <= 0 {
		return 0
	}
	js := 0.0
	for i := 0; i < n; i++ {
		pi, qi := at(p, i)/pt, at(q, i)/qt
		mi := (pi + qi) / 2
		if pi > 0 {
			js += pi / 2 * math.Log2(pi/mi)
		}
		if qi > 0 {
			js += qi / 2 * math.Log2(qi/mi)
		}
	}
	if js < 0 {
		return 0
	}
	if js > 1 {
		return 1
	}
	return js
}
