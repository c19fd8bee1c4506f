package entropy

import (
	"testing"

	"entropyip/internal/ip6"
	"entropyip/internal/synth"
)

// benchProfileAddrs generates the synthetic S1 population used by the
// CI-gated hot-path benchmarks (see scripts/check_bench.sh).
func benchProfileAddrs(b *testing.B, n int) []ip6.Addr {
	b.Helper()
	addrs, err := synth.Generate("S1", n, 1)
	if err != nil {
		b.Fatal(err)
	}
	return addrs
}

func benchmarkNewProfile(b *testing.B, n int) {
	addrs := benchProfileAddrs(b, n)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := NewProfile(addrs)
		if p.N != len(addrs) {
			b.Fatal("bad profile")
		}
	}
}

func BenchmarkNewProfile10k(b *testing.B)  { benchmarkNewProfile(b, 10_000) }
func BenchmarkNewProfile100k(b *testing.B) { benchmarkNewProfile(b, 100_000) }

func BenchmarkNewProfileWorkers100k(b *testing.B) {
	addrs := benchProfileAddrs(b, 100_000)
	for _, w := range []int{1, 0} {
		name := "workers=1"
		if w == 0 {
			name = "workers=max"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				NewProfileWorkers(addrs, w)
			}
		})
	}
}
