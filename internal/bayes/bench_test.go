package bayes

import (
	"testing"

	"entropyip/internal/entropy"
	"entropyip/internal/mining"
	"entropyip/internal/segment"
	"entropyip/internal/synth"
)

// benchLearnData encodes a synthetic S1 population into the tally Learn
// consumes — the distinct code vectors and their counts — exactly as
// core.Build does.
func benchLearnData(b *testing.B, n int) ([][]int, []int, []Variable) {
	b.Helper()
	addrs, err := synth.Generate("S1", n, 1)
	if err != nil {
		b.Fatal(err)
	}
	profile := entropy.NewProfile(addrs)
	sg := segment.Segments(profile, segment.Config{})
	models := mining.MineAllWorkers(addrs, sg, mining.Config{}, 0)
	vars := make([]Variable, len(models))
	for i, m := range models {
		vars[i] = Variable{Name: m.Seg.Label, Arity: m.Arity()}
	}
	rows, counts := mining.NewEncoder(models).EncodeDistinct(addrs, 0)
	return rows, counts, vars
}

func benchmarkLearn(b *testing.B, n int) {
	rows, counts, vars := benchLearnData(b, n)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		net, err := Learn(rows, counts, vars, LearnConfig{})
		if err != nil {
			b.Fatal(err)
		}
		if net.NumVars() != len(vars) {
			b.Fatal("bad network")
		}
	}
}

func BenchmarkLearn10k(b *testing.B)  { benchmarkLearn(b, 10_000) }
func BenchmarkLearn100k(b *testing.B) { benchmarkLearn(b, 100_000) }
