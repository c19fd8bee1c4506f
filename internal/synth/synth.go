// Package synth contains the catalog of synthetic dataset archetypes that
// stand in for the paper's real-world datasets (Table 1): five server
// networks S1-S5, five router networks R1-R5, five client networks C1-C5,
// and the aggregates AS, AR, AC and AT. Each archetype is an addressing
// plan (internal/plan) engineered to reproduce the structural features the
// paper reports for the corresponding real network — the features that
// drive every figure and table in the evaluation. See DESIGN.md
// ("Substitutions") for the rationale.
package synth

import (
	"fmt"
	"sort"

	"entropyip/internal/ip6"
	"entropyip/internal/plan"
	"entropyip/internal/stats"
)

// Kind classifies an archetype.
type Kind int

// Dataset kinds.
const (
	Server Kind = iota
	Router
	Client
	Aggregate
)

// String returns the kind's name.
func (k Kind) String() string {
	switch k {
	case Server:
		return "server"
	case Router:
		return "router"
	case Client:
		return "client"
	case Aggregate:
		return "aggregate"
	default:
		return "unknown"
	}
}

// Spec describes one synthetic dataset archetype.
type Spec struct {
	// Name is the dataset identifier used throughout the paper (S1, R3,
	// AC, ...).
	Name string
	// Kind classifies the dataset.
	Kind Kind
	// Description summarizes the structural features the archetype
	// reproduces.
	Description string
	// DefaultSize is the scaled-down default population size (the paper's
	// sizes divided by roughly 100, floor 1500), preserving relative
	// magnitudes for Table 1.
	DefaultSize int
	// PaperSize is the number of unique addresses the paper reports for
	// the dataset (Table 1), for reference in reports.
	PaperSize int
	// Build constructs the addressing plan; the seed selects concrete
	// random constants (e.g. which /32s the operator owns) so different
	// seeds give structurally identical but numerically distinct networks.
	Build func(seed int64) *plan.Mixture
}

// Catalog returns all dataset archetypes in presentation order
// (S1-S5, R1-R5, C1-C5, AS, AR, AC, AT).
func Catalog() []Spec {
	return []Spec{
		{Name: "S1", Kind: Server, PaperSize: 290_000, DefaultSize: 30_000, Build: buildS1,
			Description: "web hoster: two /32s, four addressing variants incl. embedded IPv4 and pseudo-random IIDs"},
		{Name: "S2", Kind: Server, PaperSize: 295_000, DefaultSize: 30_000, Build: buildS2,
			Description: "CDN using DNS+unicast: many globally distributed prefixes, low-byte hosts"},
		{Name: "S3", Kind: Server, PaperSize: 72_000, DefaultSize: 20_000, Build: buildS3,
			Description: "CDN using IP anycast: essentially one /96 worldwide, structure only in the last 32 bits"},
		{Name: "S4", Kind: Server, PaperSize: 18_000, DefaultSize: 10_000, Build: buildS4,
			Description: "cloud provider: simple structure in bits 32-48, only the last 32 bits discriminate hosts"},
		{Name: "S5", Kind: Server, PaperSize: 65_000, DefaultSize: 20_000, Build: buildS5,
			Description: "large web company: many /64s, last nybbles identify the service type"},
		{Name: "R1", Kind: Router, PaperSize: 6_700_000, DefaultSize: 60_000, Build: buildR1,
			Description: "global carrier: bits 28-64 discriminate prefixes, IIDs are ::1/::2 point-to-point"},
		{Name: "R2", Kind: Router, PaperSize: 235_000, DefaultSize: 30_000, Build: buildR2,
			Description: "carrier: bottom 64 bits equal 1 or 2"},
		{Name: "R3", Kind: Router, PaperSize: 21_000, DefaultSize: 15_000, Build: buildR3,
			Description: "carrier: bits 32-48 discriminate, mostly zeros, last 12 bits appear random"},
		{Name: "R4", Kind: Router, PaperSize: 3_400, DefaultSize: 3_000, Build: buildR4,
			Description: "carrier: IIDs encode IPv4 addresses as base-10 octets per 16-bit word"},
		{Name: "R5", Kind: Router, PaperSize: 1_700, DefaultSize: 1_500, Build: buildR5,
			Description: "carrier: bits 52-64 discriminate, predictable low-byte IIDs"},
		{Name: "C1", Kind: Client, PaperSize: 83_000_000, DefaultSize: 80_000, Build: buildC1,
			Description: "mobile ISP: 47% of IIDs end in 01 with a zero middle (vendor pattern), rest pseudo-random"},
		{Name: "C2", Kind: Client, PaperSize: 8_200_000, DefaultSize: 40_000, Build: buildC2,
			Description: "mobile ISP: structured /64s, pseudo-random IIDs without the u-bit dip"},
		{Name: "C3", Kind: Client, PaperSize: 530_000_000, DefaultSize: 100_000, Build: buildC3,
			Description: "wired ISP: wide /64 pools, SLAAC privacy IIDs"},
		{Name: "C4", Kind: Client, PaperSize: 39_000_000, DefaultSize: 60_000, Build: buildC4,
			Description: "wired+mobile ISP: structured bits 32-64, SLAAC privacy IIDs"},
		{Name: "C5", Kind: Client, PaperSize: 43_000_000, DefaultSize: 60_000, Build: buildC5,
			Description: "wired ISP: predictable /64 assignment, SLAAC privacy IIDs"},
		{Name: "AS", Kind: Aggregate, PaperSize: 790_000, DefaultSize: 50_000, Build: buildAS,
			Description: "aggregate servers: mixture of the S* archetypes across many /32s; oscillating entropy"},
		{Name: "AR", Kind: Aggregate, PaperSize: 12_000_000, DefaultSize: 60_000, Build: buildAR,
			Description: "aggregate routers: mixture of the R* archetypes plus a share of EUI-64 interfaces"},
		{Name: "AC", Kind: Aggregate, PaperSize: 3_500_000_000, DefaultSize: 120_000, Build: buildAC,
			Description: "aggregate web clients: mostly SLAAC privacy IIDs with the u-bit entropy dip"},
		{Name: "AT", Kind: Aggregate, PaperSize: 220_000, DefaultSize: 20_000, Build: buildAT,
			Description: "BitTorrent peers: like AC but with a larger share of MAC-derived EUI-64 IIDs"},
	}
}

// ByName returns the spec with the given (case-sensitive) name.
func ByName(name string) (Spec, bool) {
	for _, s := range Catalog() {
		if s.Name == name {
			return s, true
		}
	}
	return Spec{}, false
}

// Names returns all dataset names in catalog order.
func Names() []string {
	specs := Catalog()
	out := make([]string, len(specs))
	for i, s := range specs {
		out[i] = s.Name
	}
	return out
}

// Generate synthesizes n unique addresses from the named archetype.
// If n <= 0 the archetype's DefaultSize is used. Generation stops after
// n×20 draws (plan.Mixture.GenerateUnique); an archetype whose support
// runs out first returns fewer than n addresses and no error, as S5 does
// at its default size (13,747 of 20,000 at seed 1). Callers that need n
// addresses must check len.
func Generate(name string, n int, seed int64) ([]ip6.Addr, error) {
	spec, ok := ByName(name)
	if !ok {
		return nil, fmt.Errorf("synth: unknown dataset %q (have %v)", name, Names())
	}
	if n <= 0 {
		n = spec.DefaultSize
	}
	m := spec.Build(seed)
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("synth: dataset %q: %w", name, err)
	}
	rng := stats.Split(seed, int64(kindStream(spec))+1000)
	return m.GenerateUnique(rng, n), nil
}

func kindStream(s Spec) int {
	// A stable small integer per dataset name for RNG stream separation.
	sum := 0
	for _, c := range s.Name {
		sum = sum*31 + int(c)
	}
	return sum
}

// ---- helpers ----

// operatorPrefix derives a deterministic /32 value for an operator from the
// seed and an index, staying within documentation-style prefixes
// (2001:db8::/32 with the first nybble varied, as the paper's anonymization
// does).
func operatorPrefix(seed int64, idx int) uint64 {
	rng := stats.Split(seed, int64(idx))
	first := uint64(2 + rng.Intn(6)) // 2..7
	return first<<28 | 0x0010db8 | uint64(idx&0xf)<<16
}

func field(name string, start, width int, g plan.Generator) plan.Field {
	return plan.Field{Name: name, Start: start, Width: width, Gen: g}
}

// lowValues returns the values 0..n-1, convenient for Choice/UniformChoice.
func lowValues(n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = uint64(i)
	}
	return out
}

// zipfWeights returns n weights following a 1/(i+1) profile, mimicking the
// popularity skew of real prefix usage.
func zipfWeights(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = 1 / float64(i+1)
	}
	return out
}

// pool returns k distinct pseudo-random values below limit, deterministic
// in (seed, stream); used for subnet pools, service identifiers, etc.
func pool(seed int64, stream int64, k int, limit uint64) []uint64 {
	rng := stats.Split(seed, stream)
	seen := make(map[uint64]bool, k)
	out := make([]uint64, 0, k)
	for len(out) < k {
		v := rng.Uint64() % limit
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
