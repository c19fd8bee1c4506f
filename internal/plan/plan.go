// Package plan provides a small composable language for describing IPv6
// addressing plans — the ground truth that the paper's real-world datasets
// embody and that we must synthesize in their place (see DESIGN.md,
// "Substitutions"). A Plan is an ordered list of fields, each covering a
// nybble range of the address and drawing its value from a generator; a
// Mixture combines several plans with weights (the "addressing variants"
// the paper discovers inside real operators, e.g. S1's four variants).
//
// Plans serve two roles: they synthesize datasets for training and they
// define the target universes that the scanning experiments probe.
package plan

import (
	"fmt"
	"math/rand"
	"sort"

	"entropyip/internal/ip6"
)

// Generator produces the value of one field. Generators may inspect the
// partially built address (fields are applied in order), which is how
// cross-field couplings such as "this IID style only appears under these
// subnets" are expressed.
type Generator interface {
	// Value returns the field value for the address built so far. width is
	// the field width in nybbles; the value must fit in it.
	Value(rng *rand.Rand, partial ip6.Addr, width int) uint64
}

// Field is one nybble-aligned region of the address with its generator.
type Field struct {
	// Name documents the field ("subnet", "iid", ...).
	Name string
	// Start and Width give the nybble range [Start, Start+Width).
	Start, Width int
	// Gen draws the field's value.
	Gen Generator
}

// Plan is an ordered list of fields describing one addressing variant.
// Fields are applied in order; nybbles not covered by any field are zero.
type Plan struct {
	// Name identifies the plan (e.g. "s1-embedded-v4").
	Name string
	// Fields in application order.
	Fields []Field
}

// Validate checks that fields are within the address, non-overlapping in
// nybble coverage is NOT required (later fields may deliberately overwrite
// earlier ones), but each field must fit in a uint64.
func (p *Plan) Validate() error {
	for _, f := range p.Fields {
		if f.Width < 1 || f.Width > 16 || f.Start < 0 || f.Start+f.Width > ip6.NybbleCount {
			return fmt.Errorf("plan %q: field %q has invalid range [%d,%d)", p.Name, f.Name, f.Start, f.Start+f.Width)
		}
		if f.Gen == nil {
			return fmt.Errorf("plan %q: field %q has no generator", p.Name, f.Name)
		}
	}
	return nil
}

// One draws a single address from the plan.
func (p *Plan) One(rng *rand.Rand) ip6.Addr {
	var a ip6.Addr
	for _, f := range p.Fields {
		v := f.Gen.Value(rng, a, f.Width)
		a = a.SetField(f.Start, f.Width, v)
	}
	return a
}

// Component is one weighted variant of a mixture.
type Component struct {
	Weight float64
	Plan   *Plan
}

// Mixture is a weighted combination of addressing variants.
type Mixture struct {
	Name       string
	Components []Component
}

// Validate checks the mixture and all of its component plans.
func (m *Mixture) Validate() error {
	if len(m.Components) == 0 {
		return fmt.Errorf("mixture %q has no components", m.Name)
	}
	total := 0.0
	for _, c := range m.Components {
		if c.Weight <= 0 {
			return fmt.Errorf("mixture %q: non-positive weight", m.Name)
		}
		if c.Plan == nil {
			return fmt.Errorf("mixture %q: nil plan", m.Name)
		}
		if err := c.Plan.Validate(); err != nil {
			return err
		}
		total += c.Weight
	}
	if total <= 0 {
		return fmt.Errorf("mixture %q: zero total weight", m.Name)
	}
	return nil
}

// One draws a single address: first a variant by weight, then an address
// from it.
func (m *Mixture) One(rng *rand.Rand) ip6.Addr {
	total := 0.0
	for _, c := range m.Components {
		total += c.Weight
	}
	x := rng.Float64() * total
	for _, c := range m.Components {
		x -= c.Weight
		if x < 0 {
			return c.Plan.One(rng)
		}
	}
	return m.Components[len(m.Components)-1].Plan.One(rng)
}

// GenerateUnique draws until n unique addresses are produced or the attempt
// budget (n×20) is exhausted.
func (m *Mixture) GenerateUnique(rng *rand.Rand, n int) []ip6.Addr {
	seen := ip6.NewSet(n)
	out := make([]ip6.Addr, 0, n)
	for attempts := 0; len(out) < n && attempts < n*20; attempts++ {
		a := m.One(rng)
		if seen.Add(a) {
			out = append(out, a)
		}
	}
	return out
}

// ---- Generators ----

// constGen returns a fixed value.
type constGen uint64

func (c constGen) Value(*rand.Rand, ip6.Addr, int) uint64 { return uint64(c) }

// Const returns a generator that always produces v.
func Const(v uint64) Generator { return constGen(v) }

// weightedGen draws from a fixed set of values with weights.
type weightedGen struct {
	values  []uint64
	cum     []float64
	totalWt float64
}

// Choice returns a generator that picks among the given values with the
// given weights (weights need not sum to one). It panics on mismatched or
// empty inputs.
func Choice(values []uint64, weights []float64) Generator {
	if len(values) == 0 || len(values) != len(weights) {
		panic("plan: Choice needs matching non-empty values and weights")
	}
	g := &weightedGen{values: append([]uint64(nil), values...)}
	cum := 0.0
	for _, w := range weights {
		if w < 0 {
			panic("plan: Choice weight must be non-negative")
		}
		cum += w
		g.cum = append(g.cum, cum)
	}
	if cum <= 0 {
		panic("plan: Choice needs a positive total weight")
	}
	g.totalWt = cum
	return g
}

// UniformChoice picks uniformly among the given values.
func UniformChoice(values ...uint64) Generator {
	w := make([]float64, len(values))
	for i := range w {
		w[i] = 1
	}
	return Choice(values, w)
}

func (g *weightedGen) Value(rng *rand.Rand, _ ip6.Addr, _ int) uint64 {
	x := rng.Float64() * g.totalWt
	i := sort.SearchFloat64s(g.cum, x)
	if i >= len(g.values) {
		i = len(g.values) - 1
	}
	return g.values[i]
}

// uniformGen draws uniformly from [lo, hi].
type uniformGen struct{ lo, hi uint64 }

// Uniform returns a generator drawing uniformly from the inclusive range
// [lo, hi].
func Uniform(lo, hi uint64) Generator {
	if lo > hi {
		lo, hi = hi, lo
	}
	return uniformGen{lo: lo, hi: hi}
}

func (g uniformGen) Value(rng *rand.Rand, _ ip6.Addr, _ int) uint64 {
	span := g.hi - g.lo
	if span == ^uint64(0) {
		return rng.Uint64()
	}
	n := span + 1
	for {
		x := rng.Uint64()
		r := x % n
		if x-r <= ^uint64(0)-(n-1) {
			return g.lo + r
		}
	}
}

// randomGen draws uniformly over the field's full width.
type randomGen struct{}

// Random returns a generator drawing uniformly over all values that fit in
// the field (pseudo-random segments such as SLAAC privacy IIDs).
func Random() Generator { return randomGen{} }

func (randomGen) Value(rng *rand.Rand, _ ip6.Addr, width int) uint64 {
	v := rng.Uint64()
	if width >= 16 {
		return v
	}
	return v & (uint64(1)<<(4*uint(width)) - 1)
}

// funcGen wraps an arbitrary function.
type funcGen func(rng *rand.Rand, partial ip6.Addr, width int) uint64

// Func returns a generator backed by the given function; it is the escape
// hatch for couplings that the other combinators cannot express.
func Func(f func(rng *rand.Rand, partial ip6.Addr, width int) uint64) Generator {
	return funcGen(f)
}

func (f funcGen) Value(rng *rand.Rand, partial ip6.Addr, width int) uint64 {
	return f(rng, partial, width)
}

// SLAACPrivacy returns a generator for pseudo-random interface identifiers
// as produced by RFC 4941 privacy extensions: 64 random bits with the
// universal/local ("u") bit forced to zero. The forced bit is what produces
// the paper's characteristic entropy dip at bits 68-72 (Fig. 6).
func SLAACPrivacy() Generator {
	return Func(func(rng *rand.Rand, _ ip6.Addr, width int) uint64 {
		v := rng.Uint64()
		if width >= 16 {
			// Clear the u bit: bit 6 of the first IID byte, i.e. bit 57 of
			// the 64-bit IID value counting from the most significant.
			return v &^ (uint64(1) << 57)
		}
		return v & (uint64(1)<<(4*uint(width)) - 1)
	})
}

// EUI64 returns a generator for Modified EUI-64 interface identifiers
// derived from MAC addresses with one of the given 24-bit OUIs (vendor
// prefixes): OUI || ff:fe || random NIC bits, with the u bit inverted.
func EUI64(ouis ...uint32) Generator {
	if len(ouis) == 0 {
		panic("plan: EUI64 needs at least one OUI")
	}
	return Func(func(rng *rand.Rand, _ ip6.Addr, _ int) uint64 {
		oui := uint64(ouis[rng.Intn(len(ouis))]) & 0xffffff
		nic := rng.Uint64() & 0xffffff
		iid := oui<<40 | 0xfffe<<24 | nic
		// Modified EUI-64 inverts the u bit (bit 57 from the MSB of the
		// IID), marking globally unique MACs.
		return iid ^ (uint64(1) << 57)
	})
}

// EmbeddedIPv4Hex returns a generator that packs a random IPv4 address from
// the given /8-style pool (first octet fixed, rest random) into the low 32
// bits of the field in hexadecimal form — the dual-stack aliasing pattern
// the paper finds in S1.
func EmbeddedIPv4Hex(firstOctet byte) Generator {
	return Func(func(rng *rand.Rand, _ ip6.Addr, _ int) uint64 {
		v4 := uint64(firstOctet)<<24 | uint64(rng.Uint32()&0x00ffffff)
		return v4
	})
}

// EmbeddedIPv4DecimalPool returns a generator that writes an IPv4 address
// drawn from the pool base | random(2^hostBits) as base-10 octets across
// the four 16-bit words of the IID (the R4 pattern: ...:192:0:2:33),
// modelling an operator whose router loopbacks come from one internal
// block.
func EmbeddedIPv4DecimalPool(base uint32, hostBits int) Generator {
	if hostBits < 0 || hostBits > 32 {
		panic("plan: EmbeddedIPv4DecimalPool hostBits out of range")
	}
	mask := uint32(0)
	if hostBits > 0 {
		mask = uint32(1)<<uint(hostBits) - 1
	}
	return Func(func(rng *rand.Rand, _ ip6.Addr, _ int) uint64 {
		v4 := base&^mask | rng.Uint32()&mask
		var iid uint64
		for shift := 24; shift >= 0; shift -= 8 {
			iid = iid<<16 | decimalAsHexWord(uint64(v4>>uint(shift)&0xff))
		}
		return iid
	})
}

// decimalAsHexWord writes the decimal digits of v (0-255) as a hexadecimal
// word, e.g. 192 -> 0x0192.
func decimalAsHexWord(v uint64) uint64 {
	var w uint64
	shift := 0
	if v == 0 {
		return 0
	}
	for v > 0 {
		w |= (v % 10) << uint(shift)
		v /= 10
		shift += 4
	}
	return w
}
