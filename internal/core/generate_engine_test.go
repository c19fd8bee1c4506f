package core

import (
	"bytes"
	"sync/atomic"
	"testing"
	"time"

	"entropyip/internal/ip6"
)

// genEvidence picks a valid evidence assignment on the model's last
// segment (the IID segment of the test network, which has multiple
// codes).
func genEvidence(t *testing.T, m *Model) Evidence {
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
// test: with evidence set, Stop is polled on every attempt (not every
// stopPollInterval), so a disconnected client halts generation after at
// most a handful of draws — sequentially and in parallel.
func TestGenerateStopLatencyWithEvidence(t *testing.T) {
	m, _ := buildTestModel(t, 3000, 26, Options{})
	ev := genEvidence(t, m)
	for _, workers := range []int{1, 4} {
		var emitted atomic.Int64
		var stopped atomic.Bool
		stopped.Store(true)
		start := time.Now()
		err := m.GenerateStream(GenerateOptions{
			Count:    1 << 20,
			Seed:     1,
			Evidence: ev,
			Workers:  workers,
			Stop:     func() bool { return stopped.Load() },
		}, func(ip6.Addr) bool {
			emitted.Add(1)
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		if n := emitted.Load(); n != 0 {
			t.Errorf("workers=%d: emitted %d candidates after Stop, want 0", workers, n)
		}
		if d := time.Since(start); d > 5*time.Second {
			t.Errorf("workers=%d: generation took %v to notice Stop", workers, d)
		}
	}
}

// TestGenerateStopMidStreamWithEvidence flips Stop while candidates are
// flowing: per-attempt polling means at most one further candidate can
// be emitted after Stop becomes true.
func TestGenerateStopMidStreamWithEvidence(t *testing.T) {
	m, _ := buildTestModel(t, 3000, 27, Options{})
	var stopped atomic.Bool
	var emitted int
	err := m.GenerateStream(GenerateOptions{
		Count:    1 << 20,
		Seed:     2,
		Evidence: genEvidence(t, m),
		Workers:  4,
		Stop:     func() bool { return stopped.Load() },
	}, func(ip6.Addr) bool {
		emitted++
		if emitted == 50 {
			stopped.Store(true)
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if emitted > 51 {
		t.Errorf("emitted %d candidates, want <= 51 (per-attempt Stop polling)", emitted)
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
