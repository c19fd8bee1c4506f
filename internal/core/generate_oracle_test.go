package core

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"entropyip/internal/ip6"
	"entropyip/internal/stats"
)

// oracleRun is what the per-attempt reference loop produced for one
// request: the emitted candidates, and how many attempts were rejected
// as excluded or as duplicates.
type oracleRun struct {
	out            []ip6.Addr
	excluded, dups int
}

// generateOracle is the engine written as the plainest loop over the
// same draws: attempt k draws from stats.Split(seed, k%64) through the
// sampler and the checked decode, and each attempt is checked against
// the exclusion set and added to one dedup set on its own. Masking to /64 precedes both checks, as in prefix generation.
func generateOracle(t *testing.T, m *Model, opts GenerateOptions, mask64 bool) oracleRun {
	t.Helper()
	s := m.Net.NewSampler()
	enc := m.Encoder()
	var rngs [genSubstreams]*rand.Rand
	for i := range rngs {
		rngs[i] = stats.Split(opts.Seed, int64(i))
	}
	exclude := ip6.NewSet(0)
	if opts.Exclude != nil {
		for _, a := range opts.Exclude.Slice() {
			if mask64 {
				a = ip6.Mask(a, 64)
			}
			exclude.Add(a)
		}
	}
	buf := make([]int, m.Net.NumVars())
	seen := ip6.NewSet(0)
	var r oracleRun
	for attempts := 0; len(r.out) < opts.Count && attempts < opts.maxAttempts(); attempts++ {
		rng := rngs[attempts%genSubstreams]
		a, err := enc.Decode(s.SampleInto(rng, buf), rng)
		if err != nil {
			t.Fatal(err)
		}
		if mask64 {
			a = ip6.Mask(a, 64)
		}
		switch {
		case exclude.Contains(a):
			r.excluded++
		case seen.Add(a):
			r.out = append(r.out, a)
		default:
			r.dups++
		}
	}
	return r
}

// TestGenerateMatchesOracle pins the blocked merge to generateOracle: GenerateStream and
// GeneratePrefixesStream emit exactly its candidates, in its order, at
// counts on both sides of the 64-attempt block and of the parallel
// cutoff, at one, two and eight workers, with no options, with an
// exclusion set, and with an attempt budget of one per candidate, which
// runs out inside a block.
func TestGenerateMatchesOracle(t *testing.T) {
	m, _ := buildTestModel(t, 3000, 35, Options{})
	// Excluding earlier candidates of the model makes exclusions certain.
	frequent, err := m.Generate(GenerateOptions{Count: 2000, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	exclude := ip6.SetOf(frequent...)
	modes := []struct {
		name string
		opts GenerateOptions
	}{
		{"plain", GenerateOptions{}},
		{"exclude", GenerateOptions{Exclude: exclude}},
		{"budget", GenerateOptions{MaxAttemptsFactor: 1}},
	}
	var rejected [3]int
	for mi, mode := range modes {
		for _, mask64 := range []bool{false, true} {
			for _, count := range []int{1, 63, 64, 65, 1023, 1024, 1025, 5000} {
				opts := mode.opts
				opts.Count, opts.Seed = count, int64(count)+3
				want := generateOracle(t, m, opts, mask64)
				if mi == 0 {
					rejected[0] += want.dups
				} else {
					rejected[mi] += want.excluded
				}
				if mode.name == "budget" && want.dups > 0 {
					rejected[2]++
					if len(want.out)+want.dups != count {
						t.Fatalf("budget oracle at count %d: %d emitted + %d duplicates", count, len(want.out), want.dups)
					}
				}
				for _, workers := range []int{1, 2, 8} {
					opts.Workers = workers
					name := fmt.Sprintf("%s/mask64=%v/count=%d/workers=%d", mode.name, mask64, count, workers)
					var got []ip6.Addr
					if mask64 {
						err = m.GeneratePrefixesStream(opts, func(p ip6.Prefix) bool {
							got = append(got, p.Addr())
							return true
						})
					} else {
						err = m.GenerateStream(opts, func(a ip6.Addr) bool {
							got = append(got, a)
							return true
						})
					}
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if len(got) != len(want.out) {
						t.Fatalf("%s: %d candidates, oracle %d", name, len(got), len(want.out))
					}
					for i := range got {
						if got[i] != want.out[i] {
							t.Fatalf("%s: candidate %d is %v, oracle %v", name, i, got[i], want.out[i])
						}
					}
				}
			}
		}
	}
	// Each mode must exercise its rejection path: duplicates, exclusions,
	// and a budget spent on duplicates before Count was reached.
	for mi, n := range rejected {
		if n == 0 {
			t.Errorf("mode %s never rejected an attempt; the test model no longer exercises it", modes[mi].name)
		}
	}
}

// TestMergePollsStopBeforeDrawing pins when the blocked merge polls Stop:
// before attempts 0, stopPollInterval, 2*stopPollInterval and so on,
// before any of them is drawn, with and without evidence. With Stop
// turning true at its third poll, the sequential execution draws exactly
// the 2*stopPollInterval attempts before that poll. With Stop already
// true, the parallel execution returns while every producer is still
// inside its first draw, so the merge never waits on a producer's batch
// to notice Stop.
func TestMergePollsStopBeforeDrawing(t *testing.T) {
	m, _ := buildTestModel(t, 3000, 26, Options{})
	evidence, err := m.evidenceIndices(genEvidence(t, m))
	if err != nil {
		t.Fatal(err)
	}
	run := func(stop func() bool, draw drawFunc, workers int) *genRun {
		return &genRun{
			count:       1 << 20,
			maxAttempts: 20 << 20,
			stop:        stop,
			draw:        draw,
			excluded:    func(ip6.Addr) bool { return false },
			yield:       func(ip6.Addr) bool { return true },
			seed:        1,
			workers:     workers,
			bufLen:      m.Net.NumVars(),
		}
	}
	for _, ev := range []map[int]int{nil, evidence} {
		draw, err := m.newDraw(ev, false)
		if err != nil {
			t.Fatal(err)
		}
		draws, polls := 0, 0
		run(func() bool { polls++; return polls == 3 }, func(rng *rand.Rand, buf []int) ip6.Addr {
			draws++
			return draw(rng, buf)
		}, 1).runSequential()
		if want := 2 * stopPollInterval; draws != want {
			t.Errorf("evidence=%v: %d draws before Stop's third poll halted the run, want %d", ev != nil, draws, want)
		}
	}

	gate := make(chan struct{})
	defer close(gate)
	r := run(func() bool { return true }, func(*rand.Rand, []int) ip6.Addr {
		<-gate
		return ip6.Addr{}
	}, 4)
	done := make(chan struct{})
	go func() {
		r.runParallel()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Error("the parallel merge waited for a producer's batch before polling Stop")
	}
}
