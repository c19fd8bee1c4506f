// Package mra computes Multi-Resolution Aggregate style prefix counts and
// the 4-bit Aggregate Count Ratio (ACR) series that Entropy/IP plots next
// to per-nybble entropy (Figs. 1, 7-10 of the paper).
//
// The paper borrows the ACR concept from Plonka & Berger (IMC 2015) without
// restating a formula; the definition implemented here is documented in
// DESIGN.md: with c(d) the number of distinct d-nybble (4·d-bit) prefixes
// observed in the set and c(0)=1, the ACR at nybble d (1-based) is
//
//	ACR(d) = 1 − c(d−1)/c(d).
//
// ACR(d) is 0 when nybble d never splits existing aggregates (it carries no
// prefix-discriminating information) and approaches 1 when each aggregate
// at depth d−1 splits into many aggregates at depth d. This matches the
// qualitative reading used in the paper: "the higher the ACR value, the
// more pertinent to prefix discrimination a given segment is."
//
// The counts come from one sort of the addresses and a histogram of the
// common-prefix lengths of adjacent sorted pairs (see NewWorkers).
package mra

import (
	"cmp"
	"math/bits"
	"slices"

	"entropyip/internal/ip6"
	"entropyip/internal/parallel"
)

// Series holds prefix counts and ACR values for a dataset at every 4-bit
// boundary.
type Series struct {
	// Counts[d] is the number of distinct d-nybble prefixes, d = 0..32.
	Counts [ip6.NybbleCount + 1]int
	// ACR[i] is the aggregate count ratio of nybble i (0-based, 0..31),
	// each in [0, 1).
	ACR [ip6.NybbleCount]float64
	// N is the number of addresses analyzed (with multiplicity).
	N int
}

// New computes the ACR series for the given addresses, using all
// available cores. The result is identical for any worker count; use
// NewWorkers to bound concurrency.
func New(addrs []ip6.Addr) *Series {
	return NewWorkers(addrs, 0)
}

// NewWorkers is New with bounded concurrency (<= 0 selects GOMAXPROCS).
//
// There is one algorithm at every worker count and input size: sort a
// copy of the addresses as pairs of 64-bit halves (shards sorted
// concurrently, then merged) and take the histogram of common-prefix
// lengths of adjacent sorted pairs.
// The number of distinct d-nybble prefixes is then
//
//	counts[d] = 1 + #{adjacent pairs with LCP < d nybbles},
//
// because in sorted order every new d-prefix starts exactly where an
// adjacent pair first differs before depth d. This is skew-immune — real
// IPv6 data concentrates under 2000::/3, which starves any partition of
// the address space's top levels — and everything merged is an integer
// histogram folded in shard order, so the series is bit-identical for
// any worker count. An empty input has no prefixes at all: N = 0 and
// every count, Counts[0] included, is 0.
func NewWorkers(addrs []ip6.Addr, workers int) *Series {
	s := &Series{N: len(addrs)}
	if len(addrs) == 0 {
		return s
	}
	w := parallel.Workers(workers)
	sorted := make([]halves, len(addrs))
	for i, a := range addrs {
		sorted[i].hi, sorted[i].lo = a.Uint64s()
	}
	sortHalves(sorted, w)

	type lcpHist [ip6.NybbleCount + 1]int
	parts := parallel.MapShards(w, len(sorted)-1, func(sh parallel.Shard) *lcpHist {
		var h lcpHist
		for i := sh.Start; i < sh.End; i++ {
			h[lcpNybbles(sorted[i], sorted[i+1])]++
		}
		return &h
	})
	var hist lcpHist
	for _, p := range parts {
		for l, c := range p {
			hist[l] += c
		}
	}

	s.Counts[0] = 1
	cum := 0
	for d := 1; d <= ip6.NybbleCount; d++ {
		cum += hist[d-1] // pairs whose LCP is exactly d-1 first differ before depth d
		s.Counts[d] = 1 + cum
	}
	fillACR(s)
	return s
}

// halves is an address as its two 64-bit halves, so that ordering and
// common-prefix lengths are word operations.
type halves struct{ hi, lo uint64 }

// compareHalves orders addresses numerically, as ip6.Addr.Compare does.
func compareHalves(a, b halves) int {
	if c := cmp.Compare(a.hi, b.hi); c != 0 {
		return c
	}
	return cmp.Compare(a.lo, b.lo)
}

// lcpNybbles returns the length, in nybbles, of the longest common prefix
// of two addresses (32 for equal addresses).
func lcpNybbles(a, b halves) int {
	if x := a.hi ^ b.hi; x != 0 {
		return bits.LeadingZeros64(x) / 4
	}
	if x := a.lo ^ b.lo; x != 0 {
		return 16 + bits.LeadingZeros64(x)/4
	}
	return ip6.NybbleCount
}

// sortHalves sorts the slice in place: contiguous shards are sorted
// concurrently, then merged pairwise in rounds, with the merges of each
// round also running concurrently. The fully sorted result is unique for
// a given multiset, so the outcome is independent of the worker count.
func sortHalves(a []halves, workers int) {
	shards := parallel.Shards(len(a), workers)
	if len(shards) <= 1 {
		slices.SortFunc(a, compareHalves)
		return
	}
	parallel.ForEach(len(shards), len(shards), func(i int) {
		slices.SortFunc(a[shards[i].Start:shards[i].End], compareHalves)
	})
	buf := make([]halves, len(a))
	src, dst := a, buf
	for len(shards) > 1 {
		pairs := (len(shards) + 1) / 2
		next := make([]parallel.Shard, pairs)
		for j := 0; j < pairs; j++ {
			lo := shards[2*j]
			if 2*j+1 < len(shards) {
				next[j] = parallel.Shard{Start: lo.Start, End: shards[2*j+1].End}
			} else {
				next[j] = lo
			}
		}
		parallel.ForEach(pairs, pairs, func(j int) {
			out := dst[next[j].Start:next[j].End]
			if 2*j+1 >= len(shards) {
				copy(out, src[next[j].Start:next[j].End])
				return
			}
			l, r := shards[2*j], shards[2*j+1]
			mergeHalves(out, src[l.Start:l.End], src[r.Start:r.End])
		})
		shards = next
		src, dst = dst, src
	}
	if &src[0] != &a[0] {
		copy(a, src)
	}
}

// mergeHalves merges two sorted runs into dst (len(dst) = len(left) +
// len(right)).
func mergeHalves(dst, left, right []halves) {
	i, j, k := 0, 0, 0
	for i < len(left) && j < len(right) {
		if compareHalves(right[j], left[i]) < 0 {
			dst[k] = right[j]
			j++
		} else {
			dst[k] = left[i]
			i++
		}
		k++
	}
	k += copy(dst[k:], left[i:])
	copy(dst[k:], right[j:])
}

// fillACR derives the ACR values from the prefix counts.
func fillACR(s *Series) {
	for d := 1; d <= ip6.NybbleCount; d++ {
		prev, cur := s.Counts[d-1], s.Counts[d]
		if cur <= 0 || prev <= 0 {
			s.ACR[d-1] = 0
			continue
		}
		s.ACR[d-1] = 1 - float64(prev)/float64(cur)
	}
}

// AggregatesAt returns the number of distinct prefixes of the given bit
// length. Only 4-bit aligned lengths are tracked; other lengths return the
// count at the next shorter aligned length.
func (s *Series) AggregatesAt(bits int) int {
	if bits < 0 {
		return 0
	}
	d := bits / 4
	if d > ip6.NybbleCount {
		d = ip6.NybbleCount
	}
	return s.Counts[d]
}

// MeanACR returns the mean ACR over a half-open nybble range [from, to).
// It is a convenience for summarizing how strongly a segment discriminates
// prefixes.
func (s *Series) MeanACR(from, to int) float64 {
	if from < 0 {
		from = 0
	}
	if to > ip6.NybbleCount {
		to = ip6.NybbleCount
	}
	if to <= from {
		return 0
	}
	sum := 0.0
	for i := from; i < to; i++ {
		sum += s.ACR[i]
	}
	return sum / float64(to-from)
}
