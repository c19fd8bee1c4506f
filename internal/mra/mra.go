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
// The counts come from one radix sort of the addresses' high halves, a
// sort of the low halves within each run of equal high halves, and a
// histogram of the common-prefix lengths of adjacent sorted pairs (see
// New), on the calling goroutine.
package mra

import (
	"math/bits"
	"slices"

	"entropyip/internal/ip6"
	"entropyip/internal/stats"
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

// New computes the ACR series for the given addresses.
//
// It splits the addresses into two 64-bit halves, sorts them by hi with
// stats.SortByKey, carrying lo, and then sorts lo inside each run of
// equal hi, which leaves them in (hi, lo) order. It then takes the
// histogram of common-prefix lengths of adjacent sorted pairs.
// The number of distinct d-nybble prefixes is then
//
//	counts[d] = 1 + #{adjacent pairs with LCP < d nybbles},
//
// because in sorted order every new d-prefix starts exactly where an
// adjacent pair first differs before depth d. This is skew-immune: real
// IPv6 data concentrates under 2000::/3, which starves any partition of
// the address space's top levels. An empty input has no prefixes at all:
// N = 0 and every count, Counts[0] included, is 0.
func New(addrs []ip6.Addr) *Series {
	s := &Series{N: len(addrs)}
	if len(addrs) == 0 {
		return s
	}
	hi := make([]uint64, len(addrs))
	lo := make([]uint64, len(addrs))
	for i, a := range addrs {
		hi[i], lo[i] = a.Uint64s()
	}
	bufKeys := make([]uint64, len(addrs))
	stats.SortByKey(hi, lo, bufKeys, make([]uint64, len(addrs)))
	// Real data has few addresses per high half (100k S1 addresses have
	// about 71,000 distinct ones), so most runs hold one or two addresses
	// and only a long run is worth a radix sort, which reuses the key
	// scratch.
	for i := 0; i < len(hi); {
		j := i + 1
		for j < len(hi) && hi[j] == hi[i] {
			j++
		}
		switch {
		case j-i > shortRun:
			stats.SortByKey[uint64](lo[i:j], nil, bufKeys, nil)
		case j-i > 1:
			slices.Sort(lo[i:j])
		}
		i = j
	}

	var hist [ip6.NybbleCount + 1]int
	for i := 1; i < len(hi); i++ {
		hist[lcpNybbles(hi[i-1]^hi[i], lo[i-1]^lo[i])]++
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

// shortRun is the longest run of equal high halves that New orders with
// a comparison sort; a longer one goes through stats.SortByKey. On random
// low halves the two cost the same near 100 addresses, and the radix
// sort skips the digits a run shares, so structured interface
// identifiers favour it earlier.
const shortRun = 64

// FromCounts rebuilds the series of n addresses from its prefix counts
// (Counts[0], Counts[1], ...; entries past Counts[32] are ignored), as a
// saved model stores them.
func FromCounts(n int, counts []int) *Series {
	s := &Series{N: n}
	copy(s.Counts[:], counts)
	fillACR(s)
	return s
}

// NewWorkers is New. The worker count is ignored: the sort runs on the
// calling goroutine. It remains for callers that still pass one.
func NewWorkers(addrs []ip6.Addr, workers int) *Series {
	return New(addrs)
}

// lcpNybbles returns the length, in nybbles, of the longest common prefix
// of two addresses given the XOR of their high and low halves (32 for
// equal addresses).
func lcpNybbles(xhi, xlo uint64) int {
	if xhi != 0 {
		return bits.LeadingZeros64(xhi) / 4
	}
	return 16 + bits.LeadingZeros64(xlo)/4
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
