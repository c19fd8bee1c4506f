package core

import (
	"bytes"
	"sync/atomic"
	"testing"

	"entropyip/internal/ip6"
)

// genEvidence picks a valid evidence assignment on the model's last
// segment (the IID segment of the test network, which has multiple
// codes).
func genEvidence(t testing.TB, m *Model) Evidence {
	t.Helper()
	sm := m.Segments[len(m.Segments)-1]
	return Evidence{sm.Seg.Label: sm.Values[0].Code}
}

// TestGenerateDeterministicAcrossWorkers is the acceptance gate for the
// parallel generation engine: the emitted candidate sequence must be
// byte-identical for every worker count — parallelism is purely
// operational, exactly as it is for training. The first sequence is also
// checked for count, uniqueness, exclusion and evidence, so those
// properties hold at every worker count. Run under -race in CI, this
// also exercises the producer/merger protocol.
func TestGenerateDeterministicAcrossWorkers(t *testing.T) {
	m, addrs := buildTestModel(t, 4000, 23, Options{})
	exclude := ip6.NewSet(500)
	exclude.AddAll(addrs[:500])
	cases := []struct {
		name string
		opts GenerateOptions
	}{
		{"plain", GenerateOptions{Count: 1500, Seed: 42}},
		{"exclude", GenerateOptions{Count: 1200, Seed: 7, Exclude: exclude}},
		{"evidence", GenerateOptions{Count: 1100, Seed: 5, Evidence: genEvidence(t, m)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var want []ip6.Addr
			for _, workers := range []int{1, 2, 3, 8} {
				opts := tc.opts
				opts.Workers = workers
				got, err := m.Generate(opts)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if want == nil {
					want = got
					checkCandidates(t, m, tc.opts, want)
					continue
				}
				if len(got) != len(want) {
					t.Fatalf("workers=%d: %d candidates, want %d", workers, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("workers=%d: candidate %d differs: %v vs %v", workers, i, got[i], want[i])
					}
				}
			}
		})
	}
}

// checkCandidates asserts the properties every generated sequence must
// have: the requested count, no duplicates, no excluded address, and —
// under genEvidence — every candidate inside the evidence's mined value.
func checkCandidates(t *testing.T, m *Model, opts GenerateOptions, got []ip6.Addr) {
	t.Helper()
	if len(got) != opts.Count {
		t.Fatalf("generated %d candidates, want %d", len(got), opts.Count)
	}
	seen := ip6.NewSet(len(got))
	for _, a := range got {
		if !seen.Add(a) {
			t.Fatalf("duplicate candidate %v", a)
		}
		if opts.Exclude != nil && opts.Exclude.Contains(a) {
			t.Fatalf("excluded address %v was generated", a)
		}
	}
	if opts.Evidence == nil {
		return
	}
	sm := m.Segments[len(m.Segments)-1]
	want := sm.Values[0]
	for _, a := range got {
		if !want.Contains(sm.Seg.Value(a)) {
			t.Fatalf("candidate %v violates evidence %v", a, opts.Evidence)
		}
	}
}

// TestGeneratePrefixesDeterministicAcrossWorkers mirrors the address
// test for /64 prefix generation.
func TestGeneratePrefixesDeterministicAcrossWorkers(t *testing.T) {
	m, _ := buildTestModel(t, 3000, 24, Options{})
	var want []ip6.Prefix
	for _, workers := range []int{1, 4} {
		got, err := m.GeneratePrefixes(GenerateOptions{Count: 2000, Seed: 9, Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if want == nil {
			want = got
			continue
		}
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d prefixes, want %d", workers, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: prefix %d differs: %v vs %v", workers, i, got[i], want[i])
			}
		}
	}
}

// TestGenerateStopLatencyWithEvidence is the cancellation regression
// test under evidence: a Stop hook already true when the run starts halts
// it before its first draw, sequentially and in parallel, so a
// disconnected client's evidence stream emits nothing.
func TestGenerateStopLatencyWithEvidence(t *testing.T) {
	m, _ := buildTestModel(t, 3000, 26, Options{})
	checkStopFromStart(t, m, genEvidence(t, m))
}

// TestGenerateStopMidStreamWithEvidence flips Stop while candidates are
// flowing. Stop turns true at candidate 50, inside the first
// stopPollInterval attempts, so the run ends at the next poll, attempt
// 1,024: it emits exactly the candidates of a run whose budget is those
// 1,024 attempts, with and without evidence, sequentially and in
// parallel.
func TestGenerateStopMidStreamWithEvidence(t *testing.T) {
	m, _ := buildTestModel(t, 3000, 27, Options{})
	for _, ev := range []Evidence{nil, genEvidence(t, m)} {
		want, err := m.Generate(GenerateOptions{
			Count:             stopPollInterval,
			Seed:              2,
			Evidence:          ev,
			MaxAttemptsFactor: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(want) <= 50 {
			t.Fatalf("evidence=%v: %d candidates in the first %d attempts, the test needs more than 50", ev != nil, len(want), stopPollInterval)
		}
		for _, workers := range []int{1, 4} {
			var stopped atomic.Bool
			var got []ip6.Addr
			err := m.GenerateStream(GenerateOptions{
				Count:    1 << 20,
				Seed:     2,
				Evidence: ev,
				Workers:  workers,
				Stop:     func() bool { return stopped.Load() },
			}, func(a ip6.Addr) bool {
				got = append(got, a)
				if len(got) == 50 {
					stopped.Store(true)
				}
				return true
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("evidence=%v workers=%d: emitted %d candidates, want the %d of the first %d attempts", ev != nil, workers, len(got), len(want), stopPollInterval)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("evidence=%v workers=%d: candidate %d is %v, want %v", ev != nil, workers, i, got[i], want[i])
				}
			}
		}
	}
}

// TestLoadRenormalizesDriftedRows pins the load-time healing: a model
// file whose CPT rows drifted (e.g. written by a truncating tool) loads
// with exactly-normalized rows instead of being rejected or sampling
// biased.
func TestLoadRenormalizesDriftedRows(t *testing.T) {
	m, _ := buildTestModel(t, 2000, 28, Options{})
	// Simulate a truncating writer: scale a row so it sums to ~0.9994.
	row := m.Net.CPTs[len(m.Net.CPTs)-1].Rows[0]
	for k := range row {
		row[k] *= 0.9994
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatalf("drifted model failed to load: %v", err)
	}
	for i, cpt := range loaded.Net.CPTs {
		for j, row := range cpt.Rows {
			sum := 0.0
			for _, v := range row {
				sum += v
			}
			if diff := sum - 1; diff > 1e-9 || diff < -1e-9 {
				t.Errorf("node %d row %d sums to %v after load", i, j, sum)
			}
		}
	}
}
