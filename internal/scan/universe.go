// Package scan implements the scanning harness used to evaluate candidate
// addresses generated by Entropy/IP (§5.5 and §5.6 of the paper). The paper
// scans the real Internet with ICMPv6 echo requests and reverse-DNS
// queries; here the target network is a synthetic universe with known
// ground truth (see DESIGN.md, "Substitutions"), probed either in memory or
// over a real loopback UDP prober/responder pair that exercises actual
// sockets, deadlines and concurrency.
package scan

import (
	"entropyip/internal/ip6"
	"entropyip/internal/stats"
)

// Universe is the ground truth of one target network: which addresses are
// active, which of those answer probes ("ping"), and which have reverse DNS
// entries. The three oracles mirror the paper's Table 4 columns ("Test
// set", "Ping", "rDNS").
type Universe struct {
	active   *ip6.Set
	pingable *ip6.Set
	rdns     *ip6.Set
	prefixes *ip6.PrefixSet // active /64s
}

// UniverseConfig controls which fractions of the active population respond
// to each oracle. The defaults (80% pingable, 50% rDNS) model firewalled
// hosts and partially populated reverse zones.
type UniverseConfig struct {
	PingFraction float64
	RDNSFraction float64
	Seed         int64
}

func (c UniverseConfig) pingFraction() float64 {
	if c.PingFraction <= 0 || c.PingFraction > 1 {
		return 0.8
	}
	return c.PingFraction
}

func (c UniverseConfig) rdnsFraction() float64 {
	if c.RDNSFraction <= 0 || c.RDNSFraction > 1 {
		return 0.5
	}
	return c.RDNSFraction
}

// NewUniverse builds a universe from the full active population of a
// network.
func NewUniverse(population []ip6.Addr, cfg UniverseConfig) *Universe {
	u := &Universe{
		active:   ip6.NewSet(len(population)),
		pingable: ip6.NewSet(len(population)),
		rdns:     ip6.NewSet(len(population)),
		prefixes: ip6.NewPrefixSet(len(population) / 4),
	}
	rng := stats.RNG(cfg.Seed)
	pf, rf := cfg.pingFraction(), cfg.rdnsFraction()
	for _, a := range population {
		if !u.active.Add(a) {
			continue
		}
		u.prefixes.Add(ip6.Prefix64(a))
		if rng.Float64() < pf {
			u.pingable.Add(a)
		}
		if rng.Float64() < rf {
			u.rdns.Add(a)
		}
	}
	return u
}

// Size returns the number of active addresses.
func (u *Universe) Size() int { return u.active.Len() }

// Prefixes64 returns the number of active /64 prefixes.
func (u *Universe) Prefixes64() int { return u.prefixes.Len() }

// Active reports whether the address is active in the universe.
func (u *Universe) Active(a ip6.Addr) bool { return u.active.Contains(a) }

// Pingable reports whether the address answers echo probes.
func (u *Universe) Pingable(a ip6.Addr) bool { return u.pingable.Contains(a) }

// HasRDNS reports whether the address has a reverse DNS record.
func (u *Universe) HasRDNS(a ip6.Addr) bool { return u.rdns.Contains(a) }

// ActivePrefix64 reports whether the /64 containing the address holds at
// least one active host.
func (u *Universe) ActivePrefix64(a ip6.Addr) bool {
	return u.prefixes.Contains(ip6.Prefix64(a))
}
