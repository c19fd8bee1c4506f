package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"entropyip/internal/bayes"
	"entropyip/internal/ip6"
	"entropyip/internal/synth"
)

// benchBuildAddrs generates the synthetic S1 population used by the
// CI-gated hot-path benchmarks (see scripts/check_bench.sh).
func benchBuildAddrs(b *testing.B, n int) []ip6.Addr {
	b.Helper()
	addrs, err := synth.Generate("S1", n, 1)
	if err != nil {
		b.Fatal(err)
	}
	return addrs
}

func benchmarkBuild(b *testing.B, n, workers int) {
	addrs := benchBuildAddrs(b, n)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m, err := Build(addrs, Options{Workers: workers})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(len(m.Segments)), "segments")
		}
	}
}

func BenchmarkBuild10k(b *testing.B)  { benchmarkBuild(b, 10_000, 0) }
func BenchmarkBuild100k(b *testing.B) { benchmarkBuild(b, 100_000, 0) }

// BenchmarkEncode100k is the CI-gated encode hot loop: 100k addresses per
// op through the compiled flat-table encoder into a reused vector — the
// path ingest drift scoring and likelihood evaluation run per observation
// window. Steady state must be 0 allocs/op (gated strictly by
// scripts/check_bench.sh).
func BenchmarkEncode100k(b *testing.B) {
	addrs := benchBuildAddrs(b, 100_000)
	m := benchGenerateModel(b)
	c := m.Encoder().Compiled()
	vec := make([]int, len(m.Segments))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, a := range addrs {
			c.EncodeInto(vec, a)
		}
	}
}

// BenchmarkEncodeDistinct100k is the CI-gated training encode stage of
// Build100k: 100k S1 addresses per op encoded and tallied into distinct
// code vectors with counts (mining.Encoder.EncodeDistinct) at GOMAXPROCS
// workers, under the model trained on those same addresses.
func BenchmarkEncodeDistinct100k(b *testing.B) {
	addrs := benchBuildAddrs(b, 100_000)
	m, err := Build(addrs, Options{})
	if err != nil {
		b.Fatal(err)
	}
	enc := m.Encoder()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, _ := enc.EncodeDistinct(addrs, 0)
		if i == 0 {
			b.ReportMetric(float64(len(rows)), "distinct")
		}
	}
}

// benchGenerateModel trains the model the generation benchmarks draw
// from: the S1 population at 10k addresses, enough support to emit 100k
// unique candidates.
func benchGenerateModel(b *testing.B) *Model {
	b.Helper()
	m, err := Build(benchBuildAddrs(b, 10_000), Options{})
	if err != nil {
		b.Fatal(err)
	}
	return m
}

func benchmarkGenerate(b *testing.B, n, workers int) {
	m := benchGenerateModel(b)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		got, err := m.Generate(GenerateOptions{Count: n, Seed: int64(i + 1), Workers: workers})
		if err != nil {
			b.Fatal(err)
		}
		if len(got) == 0 {
			b.Fatal("no candidates")
		}
	}
}

// benchDecodeVecs draws 100k categorical vectors, one flat row each, from
// the generation benchmark model's network.
func benchDecodeVecs(b *testing.B) (*Model, []int, int) {
	b.Helper()
	m := benchGenerateModel(b)
	s := m.Net.NewSampler()
	nv := s.NumVars()
	vecs := make([]int, 100_000*nv)
	rng := rand.New(rand.NewSource(1))
	for j := 0; j < len(vecs); j += nv {
		s.SampleInto(rng, vecs[j:j+nv])
	}
	return m, vecs, nv
}

// sinkAddr keeps decode results live in the benchmark loops.
var sinkAddr ip6.Addr

// BenchmarkDecode100k is the CI-gated decode hot loop: 100k vectors drawn
// from the generation model's network per op, decoded through the
// compiled decoder generation runs on. Steady state must be 0 allocs/op;
// the speedup over the readable decode is measured against
// BenchmarkDecodeReference100k.
func BenchmarkDecode100k(b *testing.B) {
	m, vecs, nv := benchDecodeVecs(b)
	dec := m.Encoder().Decoder()
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < len(vecs); j += nv {
			sinkAddr = dec.Decode(vecs[j:j+nv], rng)
		}
	}
}

// BenchmarkDecodeReference100k is the readable per-segment decode
// (mining.Encoder.DecodeReference) over the same vectors.
func BenchmarkDecodeReference100k(b *testing.B) {
	m, vecs, nv := benchDecodeVecs(b)
	enc := m.Encoder()
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < len(vecs); j += nv {
			a, err := enc.DecodeReference(vecs[j:j+nv], rng)
			if err != nil {
				b.Fatal(err)
			}
			sinkAddr = a
		}
	}
}

func BenchmarkGenerate10k(b *testing.B)  { benchmarkGenerate(b, 10_000, 0) }
func BenchmarkGenerate100k(b *testing.B) { benchmarkGenerate(b, 100_000, 0) }

// BenchmarkGenerateWorkers100k is the scaling benchmark behind the PR's
// acceptance criterion: on a multi-core runner, workers=max must show a
// multiple of workers=1's throughput while emitting a byte-identical
// candidate sequence (asserted by the determinism tests). Compare the
// sub-benchmarks with benchstat.
func BenchmarkGenerateWorkers100k(b *testing.B) {
	m := benchGenerateModel(b)
	run := func(name string, workers int) {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				got, err := m.Generate(GenerateOptions{
					Count: 100_000, Seed: int64(i + 1), Workers: workers,
				})
				if err != nil {
					b.Fatal(err)
				}
				if len(got) == 0 {
					b.Fatal("no candidates")
				}
			}
		})
	}
	run("workers=1", 1)
	run(fmt.Sprintf("workers=%d", runtime.GOMAXPROCS(0)), 0)
}

// BenchmarkBuildWorkers100k is the scaling benchmark behind the PR's
// acceptance criterion: on a multi-core runner, workers=max must be at
// least ~2x faster than workers=1 while (per the determinism tests)
// producing a byte-identical model. Compare the two sub-benchmarks with
// benchstat.
func BenchmarkBuildWorkers100k(b *testing.B) {
	addrs := benchBuildAddrs(b, 100_000)
	for _, w := range []int{1, 0} {
		name := "workers=1"
		if w == 0 {
			name = fmt.Sprintf("workers=%d", runtime.GOMAXPROCS(0))
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Build(addrs, Options{Workers: w}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// spreadValuesModel returns a model file with segs adjacent segments of
// width nybbles each, every one holding n exact values spread evenly over
// its domain, and a network of independent uniform variables over them.
func spreadValuesModel(tb testing.TB, segs, width, n int) []byte {
	m := modelJSON{Version: modelVersion, Net: &bayes.Network{}}
	stride := (uint64(1) << (4 * width)) / uint64(n)
	row := make([]float64, n)
	for k := range row {
		row[k] = 1 / float64(n)
	}
	for s := 0; s < segs; s++ {
		label := string(rune('A' + s))
		values := make([]valueJSON, n)
		for k := range values {
			v := uint64(k) * stride
			values[k] = valueJSON{Code: fmt.Sprint(label, k+1), Lo: v, Hi: v, Count: 1, Step: 1}
		}
		m.Segments = append(m.Segments, segmentJSON{Label: label, Start: s * width, Width: width, Total: n, Values: values})
		m.Net.Vars = append(m.Net.Vars, bayes.Variable{Name: label, Arity: n})
		m.Net.Parents = append(m.Net.Parents, nil)
		m.Net.CPTs = append(m.Net.CPTs, &bayes.CPT{Arity: n, Rows: [][]float64{row}})
	}
	raw, err := json.Marshal(m)
	if err != nil {
		tb.Fatal(err)
	}
	return raw
}

// BenchmarkLoadMaxArity is what loading an untrusted model file costs at
// the MaxArity bound, in the two shapes that compile each segment's
// encoder differently: four width-8 segments of MaxArity values each
// (interval tables) and one 3-nybble segment of MaxArity values (a direct
// value table).
func BenchmarkLoadMaxArity(b *testing.B) {
	for _, shape := range []struct {
		name        string
		segs, width int
	}{{"4x8nybbles", 4, 8}, {"1x3nybbles", 1, 3}} {
		raw := spreadValuesModel(b, shape.segs, shape.width, MaxArity)
		b.Run(shape.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Load(bytes.NewReader(raw)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGenerateStream1M is the paper's scanning protocol (§5.5) in
// process: 1M candidates from a model trained on 1K synthetic R1
// addresses, the shape of eipbench's stream workload without its wire
// and socket. It times the whole engine (draw, decode, dedup and merge)
// at one worker and at GOMAXPROCS, and reports the attempts the merge
// consumed per candidate, counted where every attempt meets the
// exclusion check. The workers=2,procs=1 case runs the parallel path
// with GOMAXPROCS pinned to 1, so its producers and merge share one
// core: its gap to workers=1 is what the parallel path's batches and
// channels cost, apart from any cost of running across cores.
func BenchmarkGenerateStream1M(b *testing.B) {
	train, err := synth.Generate("R1", 1000, 1)
	if err != nil {
		b.Fatal(err)
	}
	m, err := Build(train, Options{})
	if err != nil {
		b.Fatal(err)
	}
	const count = 1_000_000
	run := func(name string, workers, procs int) {
		b.Run(name, func(b *testing.B) {
			if procs > 0 {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			}
			b.ReportAllocs()
			attempts, emitted := 0, 0
			for i := 0; i < b.N; i++ {
				opts := GenerateOptions{Count: count, Seed: int64(i + 1), Workers: workers}
				err := m.generate(opts, false,
					func(ip6.Addr) bool { attempts++; return false },
					func(ip6.Addr) bool { emitted++; return true })
				if err != nil {
					b.Fatal(err)
				}
			}
			if emitted != b.N*count {
				b.Fatalf("emitted %d candidates in %d runs, want %d each", emitted, b.N, count)
			}
			b.ReportMetric(float64(attempts)/float64(emitted), "attempts/cand")
		})
	}
	run("workers=1", 1, 0)
	run(fmt.Sprintf("workers=%d", runtime.GOMAXPROCS(0)), 0, 0)
	run("workers=2,procs=1", 2, 1)
}
