package core

import (
	"testing"
	"time"

	"entropyip/internal/ip6"
)

// TestGenerateStreamMatchesGenerate checks the streaming generator emits
// exactly the sequence the batch API returns for the same seed.
func TestGenerateStreamMatchesGenerate(t *testing.T) {
	m, _ := buildTestModel(t, 3000, 11, Options{})
	opts := GenerateOptions{Count: 500, Seed: 99}
	batch, err := m.Generate(opts)
	if err != nil {
		t.Fatal(err)
	}
	var streamed []ip6.Addr
	if err := m.GenerateStream(opts, func(a ip6.Addr) bool {
		streamed = append(streamed, a)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(streamed) != len(batch) {
		t.Fatalf("stream emitted %d candidates, batch returned %d", len(streamed), len(batch))
	}
	for i := range batch {
		if streamed[i] != batch[i] {
			t.Fatalf("candidate %d differs: %v vs %v", i, streamed[i], batch[i])
		}
	}
}

// TestGenerateStreamEarlyStop checks yield returning false halts generation.
func TestGenerateStreamEarlyStop(t *testing.T) {
	m, _ := buildTestModel(t, 3000, 11, Options{})
	n := 0
	err := m.GenerateStream(GenerateOptions{Count: 500, Seed: 1}, func(ip6.Addr) bool {
		n++
		return n < 10
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 10 {
		t.Errorf("expected exactly 10 yields before stop, got %d", n)
	}
}

// TestGenerateStreamStop checks that a Stop hook already true when the
// run starts halts it before its first draw, so no candidate comes out,
// sequentially and in parallel (the disconnected-client path).
// TestGenerateStopLatencyWithEvidence runs the same check under evidence.
func TestGenerateStreamStop(t *testing.T) {
	m, _ := buildTestModel(t, 3000, 26, Options{})
	checkStopFromStart(t, m, nil)
}

// checkStopFromStart runs m with a Stop hook that is true from the start,
// at 1 and 4 workers, and requires that nothing is emitted and that the
// run ends promptly.
func checkStopFromStart(t *testing.T, m *Model, ev Evidence) {
	t.Helper()
	for _, workers := range []int{1, 4} {
		n := 0
		start := time.Now()
		err := m.GenerateStream(GenerateOptions{
			Count:    1 << 20,
			Seed:     1,
			Evidence: ev,
			Workers:  workers,
			Stop:     func() bool { return true },
		}, func(ip6.Addr) bool {
			n++
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		if n != 0 {
			t.Errorf("evidence=%v workers=%d: emitted %d candidates after Stop, want 0", ev != nil, workers, n)
		}
		if d := time.Since(start); d > 5*time.Second {
			t.Errorf("evidence=%v workers=%d: generation took %v to notice Stop", ev != nil, workers, d)
		}
	}
}

// TestGeneratePrefixesStreamMatchesBatch mirrors the address test for /64s.
func TestGeneratePrefixesStreamMatchesBatch(t *testing.T) {
	m, _ := buildTestModel(t, 3000, 11, Options{})
	opts := GenerateOptions{Count: 200, Seed: 5}
	batch, err := m.GeneratePrefixes(opts)
	if err != nil {
		t.Fatal(err)
	}
	var streamed []ip6.Prefix
	if err := m.GeneratePrefixesStream(opts, func(p ip6.Prefix) bool {
		streamed = append(streamed, p)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(streamed) != len(batch) {
		t.Fatalf("stream emitted %d prefixes, batch returned %d", len(streamed), len(batch))
	}
	for i := range batch {
		if streamed[i] != batch[i] {
			t.Fatalf("prefix %d differs: %v vs %v", i, streamed[i], batch[i])
		}
	}
}
