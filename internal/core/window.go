package core

import (
	"math"
	"math/bits"

	"entropyip/internal/bayes"
	"entropyip/internal/ip6"
	"entropyip/internal/mining"
)

// WindowState is the encoding summary of a multiset of addresses, kept up
// to date one address at a time, for a consumer that scores a window
// again after only some of its addresses changed (drift evaluation on the
// observe path). Add and Remove each encode one address, move its code
// and clamp counts by one and move the two likelihood sums by its terms;
// Encoding reads the counts and converts the sums, so its cost does not
// grow with the window. EncodeWindow is a fresh state plus one Add per
// address, so both paths compute the same encoding by construction.
//
// The sums are exact and independent of the order the addresses come in.
// An address's Bayesian-network total (bayes.Scorer.Add) and its
// within-density total are each rounded once to a whole number of
// fixedUnit, and those integers are added in a 128-bit accumulator. One
// total is below 2^15 nats (at most 32 segments, each charged at least
// the scorer's log 1e-300 floor or the out-of-support floor), so 2^47
// units, and the accumulator holds any window of fewer than 2^80
// addresses: removing an address undoes its Add exactly.
//
// A WindowState belongs to one model and is not safe for concurrent use.
type WindowState struct {
	enc *mining.CompiledEncoder
	sc  *bayes.Scorer
	// outOfSupport[i] is segment i's within term for a clamped value.
	outOfSupport []float64
	n            int
	bn, within   fixedSum
	// w holds the code and clamp counts; Encoding fills in the sums.
	w WindowEncoding
	// vec is per-address scratch.
	vec []int
}

// NewWindowState returns an empty window state for the model.
func (m *Model) NewWindowState() *WindowState {
	k := len(m.Segments)
	s := &WindowState{
		enc:          m.encoder.Compiled(),
		sc:           m.scorer,
		outOfSupport: make([]float64, k),
		vec:          make([]int, k),
		w: WindowEncoding{
			CodeCounts: make([][]int, k),
			Clamped:    make([]int, k),
		},
	}
	for i, sm := range m.Segments {
		s.outOfSupport[i] = outOfSupportLogProb(sm.Seg.Width)
		s.w.CodeCounts[i] = make([]int, sm.Arity())
	}
	return s
}

// Add counts address a into the window.
func (s *WindowState) Add(a ip6.Addr) { s.count(a, 1) }

// Remove takes one count of address a out of the window; a must have been
// added.
func (s *WindowState) Remove(a ip6.Addr) { s.count(a, -1) }

// Len returns the number of addresses counted.
func (s *WindowState) Len() int { return s.n }

// Encoding returns the window's encoding summary. The result shares the
// state's count slices: it is read-only and valid until the next Add or
// Remove.
func (s *WindowState) Encoding() *WindowEncoding {
	s.w.BNLogLikelihood = s.bn.nats()
	s.w.WithinLogDensity = s.within.nats()
	return &s.w
}

// count encodes a and moves the counts and sums by d copies of it.
func (s *WindowState) count(a ip6.Addr, d int) {
	hi, lo := a.Uint64s()
	within := 0.0
	for i := range s.vec {
		idx, covered := s.enc.EncodeSegment(i, hi, lo)
		if covered {
			within -= s.enc.LogWidth(i, idx)
		} else {
			s.w.Clamped[i] += d
			within += s.outOfSupport[i]
			if idx < 0 {
				idx = 0 // unreachable: mined segments have arity >= 1
			}
		}
		s.vec[i] = idx
		s.w.CodeCounts[i][idx] += d
	}
	s.n += d
	s.bn.add(int64(d) * toFixed(s.sc.Add(0, s.vec)))
	s.within.add(int64(d) * toFixed(within))
}

// fixedUnit is the resolution of the window sums: 2^-32 nats.
const fixedUnit = 0x1p-32

// toFixed rounds a log term to the nearest whole number of fixedUnit.
func toFixed(nats float64) int64 { return int64(math.Round(nats / fixedUnit)) }

// fixedSum is a signed 128-bit two's-complement sum of fixed-point terms.
type fixedSum struct{ hi, lo uint64 }

// add adds x, sign-extended to 128 bits.
func (f *fixedSum) add(x int64) {
	var carry uint64
	f.lo, carry = bits.Add64(f.lo, uint64(x), 0)
	f.hi += uint64(x>>63) + carry
}

// nats returns the sum in nats, rounded to a float64.
func (f fixedSum) nats() float64 {
	hi, lo := f.hi, f.lo
	neg := int64(hi) < 0
	if neg {
		var borrow uint64
		lo, borrow = bits.Sub64(0, lo, 0)
		hi = -hi - borrow
	}
	x := (float64(hi)*0x1p64 + float64(lo)) * fixedUnit
	if neg {
		return -x
	}
	return x
}
