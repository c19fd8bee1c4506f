// Package segment implements the address segmentation step of Entropy/IP
// (§4.2 of the paper): grouping adjacent nybbles of similar entropy into
// contiguous segments, using a threshold set with hysteresis, plus two
// hard-wired boundaries at bit 32 (the smallest RIR allocation) and bit 64
// (the conventional network/interface identifier split).
package segment

import (
	"fmt"
	"math"
	"strings"

	"entropyip/internal/entropy"
	"entropyip/internal/ip6"
)

// DefaultThresholds is the threshold set T from the paper. A new segment
// starts at nybble i whenever the entropy of nybble i compared with nybble
// i−1 crosses any of these values (subject to the hysteresis).
var DefaultThresholds = []float64{0.025, 0.1, 0.3, 0.5, 0.9}

// DefaultHysteresis is the hysteresis Th from the paper: the entropy of two
// adjacent nybbles must also differ by more than this amount before a new
// segment is started.
const DefaultHysteresis = 0.05

// Config controls segmentation. Model files persist it under its JSON
// tags. Thresholds and ForcedBoundaries have no omitempty: nil (use the
// defaults) and [] (explicitly none) mean different things, and both
// must survive a save and load.
type Config struct {
	// Thresholds is the ordered list of entropy thresholds T. If nil,
	// DefaultThresholds is used.
	Thresholds []float64 `json:"thresholds"`
	// Hysteresis is Th. If zero, DefaultHysteresis is used. Set to a
	// negative value for no hysteresis.
	Hysteresis float64 `json:"hysteresis,omitempty"`
	// ForcedBoundaries lists bit positions at which a segment boundary is
	// always placed (in addition to threshold crossings). If nil, the
	// paper's defaults {32, 64} are used. Positions must be multiples of 4
	// within 4..124; others are ignored.
	ForcedBoundaries []int `json:"forced_boundaries"`
	// MaxNybble restricts segmentation to the first MaxNybble nybbles of
	// the address (the rest are not assigned to any segment). Zero means
	// all 32 nybbles. The paper uses 16 for client /64-prefix prediction
	// (§5.6).
	MaxNybble int `json:"max_nybble,omitempty"`
}

func (c Config) thresholds() []float64 {
	if c.Thresholds == nil {
		return DefaultThresholds
	}
	return c.Thresholds
}

func (c Config) hysteresis() float64 {
	switch {
	case c.Hysteresis == 0:
		return DefaultHysteresis
	case c.Hysteresis < 0:
		return 0
	default:
		return c.Hysteresis
	}
}

func (c Config) maxNybble() int {
	if c.MaxNybble <= 0 || c.MaxNybble > ip6.NybbleCount {
		return ip6.NybbleCount
	}
	return c.MaxNybble
}

func (c Config) forcedBoundaries() map[int]bool {
	bits := c.ForcedBoundaries
	if bits == nil {
		bits = []int{32, 64}
	}
	out := make(map[int]bool, len(bits))
	for _, b := range bits {
		if b%4 == 0 && b >= 4 && b < 4*ip6.NybbleCount {
			out[b/4] = true // nybble index at which a new segment must start
		}
	}
	return out
}

// Segment is a contiguous block of nybbles with similar entropy.
type Segment struct {
	// Label is the segment's letter: "A", "B", ..., "Z", "AA", ... in
	// left-to-right order.
	Label string
	// Start is the first nybble index of the segment (0-based).
	Start int
	// Width is the number of nybbles in the segment (1..16).
	Width int
	// MeanEntropy is the mean normalized entropy of the segment's nybbles.
	MeanEntropy float64
}

// End returns the nybble index one past the end of the segment.
func (s Segment) End() int { return s.Start + s.Width }

// StartBit returns the first bit of the segment (0-based).
func (s Segment) StartBit() int { return 4 * s.Start }

// EndBit returns the bit one past the end of the segment.
func (s Segment) EndBit() int { return 4 * s.End() }

// String describes the segment, e.g. "B(32-40)".
func (s Segment) String() string {
	return fmt.Sprintf("%s(%d-%d)", s.Label, s.StartBit(), s.EndBit())
}

// Value extracts the segment's value from an address as an unsigned
// integer (most significant nybble first).
func (s Segment) Value(a ip6.Addr) uint64 {
	return a.Field(s.Start, s.Width)
}

// Set writes the value v into the segment's nybbles of a and returns the
// result.
func (s Segment) Set(a ip6.Addr, v uint64) ip6.Addr {
	return a.SetField(s.Start, s.Width, v)
}

// MaxValue returns the largest value representable in the segment
// (16^Width − 1).
func (s Segment) MaxValue() uint64 {
	if s.Width >= 16 {
		return ^uint64(0)
	}
	return uint64(1)<<(4*uint(s.Width)) - 1
}

// FormatValue renders a segment value as a fixed-width hexadecimal string
// of the segment's width, as the paper's tables do.
func (s Segment) FormatValue(v uint64) string {
	return fmt.Sprintf("%0*x", s.Width, v)
}

// Segmentation is an ordered list of segments covering nybbles
// [0, MaxNybble) of the address.
type Segmentation struct {
	Segments []Segment
}

// Segments computes the segmentation of an address set from its per-nybble
// entropy profile, using the paper's threshold algorithm:
//
//	start a new segment at nybble i when H(Xi) compared with H(Xi−1)
//	passes through any threshold in T and |H(Xi) − H(Xi−1)| > Th.
//
// Boundaries are additionally forced at the configured bit positions
// (default bits 32 and 64). No segment is ever wider than 16 nybbles, so
// segment values always fit in a uint64.
func Segments(profile *entropy.Profile, cfg Config) *Segmentation {
	maxN := cfg.maxNybble()
	thresholds := cfg.thresholds()
	th := cfg.hysteresis()
	forced := cfg.forcedBoundaries()

	var cuts []int // nybble indices at which a new segment starts (excluding 0)
	for i := 1; i < maxN; i++ {
		if forced[i] {
			cuts = append(cuts, i)
			continue
		}
		// The paper always makes bits 1-32 a single segment A (the smallest
		// RIR allocation); threshold crossings within the first 8 nybbles
		// therefore never start a new segment. Explicit forced boundaries
		// placed there still apply (handled above).
		if i < 8 && cfg.ForcedBoundaries == nil {
			continue
		}
		prev, cur := profile.H[i-1], profile.H[i]
		if crossesThreshold(prev, cur, thresholds) && math.Abs(cur-prev) > th {
			cuts = append(cuts, i)
		}
	}

	// Build segments from cut positions, enforcing the 16-nybble cap.
	starts := append([]int{0}, cuts...)
	var segs []Segment
	for idx, start := range starts {
		end := maxN
		if idx+1 < len(starts) {
			end = starts[idx+1]
		}
		for start < end {
			width := end - start
			if width > 16 {
				width = 16
			}
			segs = append(segs, Segment{Start: start, Width: width})
			start += width
		}
	}
	for i := range segs {
		segs[i].Label = Label(i)
		segs[i].MeanEntropy = meanEntropy(profile, segs[i])
	}
	return &Segmentation{Segments: segs}
}

// crossesThreshold reports whether moving from entropy a to entropy b
// passes through any of the thresholds: some t lies strictly between them
// (or equals one bound while the values differ across it).
func crossesThreshold(a, b float64, thresholds []float64) bool {
	lo, hi := a, b
	if lo > hi {
		lo, hi = hi, lo
	}
	for _, t := range thresholds {
		if lo < t && hi >= t {
			return true
		}
		if lo <= t && hi > t {
			return true
		}
	}
	return false
}

func meanEntropy(p *entropy.Profile, s Segment) float64 {
	sum := 0.0
	for i := s.Start; i < s.End(); i++ {
		sum += p.H[i]
	}
	return sum / float64(s.Width)
}

// Label returns the letter label of the i-th segment: A..Z, then AA, AB...
func Label(i int) string {
	if i < 0 {
		return "?"
	}
	if i < 26 {
		return string(rune('A' + i))
	}
	return Label(i/26-1) + string(rune('A'+i%26))
}

// Find returns the segment with the given label, if present.
func (sg *Segmentation) Find(label string) (Segment, bool) {
	for _, s := range sg.Segments {
		if s.Label == label {
			return s, true
		}
	}
	return Segment{}, false
}

// At returns the segment containing the given nybble index, if any.
func (sg *Segmentation) At(nybble int) (Segment, bool) {
	for _, s := range sg.Segments {
		if nybble >= s.Start && nybble < s.End() {
			return s, true
		}
	}
	return Segment{}, false
}

// Covered returns the number of nybbles covered by the segmentation.
func (sg *Segmentation) Covered() int {
	n := 0
	for _, s := range sg.Segments {
		n += s.Width
	}
	return n
}

// Values extracts the value of every segment from the address, in segment
// order.
func (sg *Segmentation) Values(a ip6.Addr) []uint64 {
	out := make([]uint64, len(sg.Segments))
	for i, s := range sg.Segments {
		out[i] = s.Value(a)
	}
	return out
}

// Assemble builds an address from per-segment values (the inverse of
// Values). Nybbles not covered by any segment are zero.
func (sg *Segmentation) Assemble(values []uint64) (ip6.Addr, error) {
	if len(values) != len(sg.Segments) {
		return ip6.Addr{}, fmt.Errorf("segment: Assemble needs %d values, got %d", len(sg.Segments), len(values))
	}
	var a ip6.Addr
	for i, s := range sg.Segments {
		if values[i] > s.MaxValue() {
			return ip6.Addr{}, fmt.Errorf("segment: value %#x does not fit in segment %s", values[i], s)
		}
		a = s.Set(a, values[i])
	}
	return a, nil
}

// String renders the segmentation compactly, e.g.
// "A(0-32) B(32-40) C(40-48) ...".
func (sg *Segmentation) String() string {
	parts := make([]string, len(sg.Segments))
	for i, s := range sg.Segments {
		parts[i] = s.String()
	}
	return strings.Join(parts, " ")
}

// Validate checks the internal consistency of the segmentation: segments
// are ordered, contiguous from nybble 0, non-empty and at most 16 nybbles
// wide.
func (sg *Segmentation) Validate() error {
	next := 0
	for i, s := range sg.Segments {
		if s.Start != next {
			return fmt.Errorf("segment: segment %d starts at %d, want %d", i, s.Start, next)
		}
		if s.Width < 1 || s.Width > 16 {
			return fmt.Errorf("segment: segment %d has invalid width %d", i, s.Width)
		}
		if s.Label != Label(i) {
			return fmt.Errorf("segment: segment %d has label %q, want %q", i, s.Label, Label(i))
		}
		next = s.End()
	}
	if next > ip6.NybbleCount {
		return fmt.Errorf("segment: segmentation extends past the address (%d nybbles)", next)
	}
	return nil
}
