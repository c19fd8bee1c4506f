package stats

import (
	"math/rand"
	"sort"
)

// RNG returns a deterministic pseudo-random generator for the given seed.
// All randomized components of this repository take a seed (or an
// explicit *rand.Rand) so that experiments are reproducible. It draws the
// same sequence as rand.New(rand.NewSource(seed)).
func RNG(seed int64) *rand.Rand {
	src := new(Source)
	src.Seed(seed)
	return rand.New(src)
}

// SplitSeed mixes a parent seed and a stream index into the seed of that
// stream: SplitMix64's finalizer over seed + golden-ratio·(stream+1).
func SplitSeed(seed, stream int64) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*uint64(stream+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}

// Split derives a child RNG from a parent seed and a stream index, so that
// parallel components get independent, reproducible streams. It is
// RNG(SplitSeed(seed, stream)).
func Split(seed int64, stream int64) *rand.Rand {
	return RNG(SplitSeed(seed, stream))
}

// SampleN returns a uniform random sample of n items (without replacement)
// from the input slice, in random order. If n >= len(in), a shuffled copy
// of the whole input is returned. The input is not modified.
func SampleN[T any](rng *rand.Rand, in []T, n int) []T {
	cp := append([]T(nil), in...)
	rng.Shuffle(len(cp), func(i, j int) { cp[i], cp[j] = cp[j], cp[i] })
	if n > len(cp) {
		n = len(cp)
	}
	if n < 0 {
		n = 0
	}
	return cp[:n]
}

// SplitTrainTest splits the input into a training sample of size n and the
// remaining test set, without replacement, mirroring the paper's
// methodology of training on a random 1K sample and testing on the rest
// (§5.5). The input is not modified.
func SplitTrainTest[T any](rng *rand.Rand, in []T, n int) (train, test []T) {
	cp := append([]T(nil), in...)
	rng.Shuffle(len(cp), func(i, j int) { cp[i], cp[j] = cp[j], cp[i] })
	if n > len(cp) {
		n = len(cp)
	}
	if n < 0 {
		n = 0
	}
	return cp[:n], cp[n:]
}

// StratifiedSample selects up to perStratum items from each stratum.
// Strata are identified by the key function; the paper stratifies by /32
// prefix, selecting 1K addresses per /32, to avoid over-representing large
// networks (§3, §5.1). Output order is deterministic given the RNG: strata
// are visited in sorted key order.
func StratifiedSample[T any, K interface {
	comparable
	~string | ~int | ~uint64
}](rng *rand.Rand, in []T, key func(T) K, perStratum int) []T {
	groups := make(map[K][]T)
	for _, item := range in {
		k := key(item)
		groups[k] = append(groups[k], item)
	}
	keys := make([]K, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	var out []T
	for _, k := range keys {
		out = append(out, SampleN(rng, groups[k], perStratum)...)
	}
	return out
}

// WeightedChoice selects an index in [0, len(weights)) with probability
// proportional to the weights. Zero and negative weights are treated as
// zero. It panics if all weights are zero or the slice is empty.
func WeightedChoice(rng *rand.Rand, weights []float64) int {
	total := 0.0
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 || len(weights) == 0 {
		panic("stats: WeightedChoice with no positive weights")
	}
	x := rng.Float64() * total
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(weights) - 1
}
