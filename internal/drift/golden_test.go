package drift

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"entropyip/internal/core"
	"entropyip/internal/ip6"
	"entropyip/internal/synth"
)

// goldenWindowSize is the ingest window drift scoring runs on in serving
// (ingest.DefaultWindowSize).
const goldenWindowSize = 16_384

// goldenS5Held is the size of the held-out S5 window goldenDriftModel
// really gets (see there).
const goldenS5Held = 12_550

// goldenDriftModel trains the model the golden reports are scored
// against: 1000 S5 addresses (seed 1, default options). It also returns
// a held-out S5 window and a C1 window of goldenWindowSize addresses.
// S5's support runs out before synth.Generate's draw budget fills the
// 1000+goldenWindowSize it is asked for, and Generate returns short
// without an error, so the held-out S5 window holds goldenS5Held (12,550)
// addresses, not goldenWindowSize. The function fails unless both
// windows have the sizes the golden hashes were recorded on.
func goldenDriftModel(tb testing.TB) (m *core.Model, s5, c1 []ip6.Addr) {
	tb.Helper()
	addrs, err := synth.Generate("S5", 1000+goldenWindowSize, 1)
	if err != nil {
		tb.Fatal(err)
	}
	if len(addrs) != 1000+goldenS5Held {
		tb.Fatalf("S5: %d addresses, want %d (1000 training + %d held out)", len(addrs), 1000+goldenS5Held, goldenS5Held)
	}
	m, err = core.Build(addrs[:1000], core.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	c1, err = synth.Generate("C1", goldenWindowSize, 2)
	if err != nil {
		tb.Fatal(err)
	}
	if len(c1) != goldenWindowSize {
		tb.Fatalf("C1: %d addresses, want %d", len(c1), goldenWindowSize)
	}
	return m, addrs[1000:], c1
}

// TestScoreGoldenReportHashes pins the exact JSON of two drift reports:
// a held-out S5 window (healthy) and a C1 window (drifted) scored against
// a 1K-trained S5 model. Scoring is deterministic, so any change to
// window encoding, the likelihood summation or the divergences that
// moves one bit of a report fails here. A change that is meant to alter
// reports updates these hashes and says why.
func TestScoreGoldenReportHashes(t *testing.T) {
	golden := map[string]string{
		"S5": "64ae2ea2975de1e09ce57e330a6976ecac5c4ffbd76a1f98de98438351c41c30",
		"C1": "7a2471c34356446340d20a0fb151b6abfc5713359af2e841ab6780a05aefd211",
	}
	m, s5, c1 := goldenDriftModel(t)
	for _, tc := range []struct {
		name   string
		window []ip6.Addr
	}{{"S5", s5}, {"C1", c1}} {
		rep, err := Score(m, tc.window)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(b)
		if got := hex.EncodeToString(sum[:]); got != golden[tc.name] {
			t.Errorf("%s: drift report SHA-256 = %s, want %s", tc.name, got, golden[tc.name])
		}
	}
}

// BenchmarkDriftScore16k scores the held-out S5 window against a
// 1K-trained S5 model: window encoding, the Bayesian-network likelihood
// and the per-segment divergences. The window holds 12,550 addresses,
// not a full 16,384-slot serving window, because S5 synthesis comes back
// short (see goldenDriftModel).
func BenchmarkDriftScore16k(b *testing.B) {
	m, s5, _ := goldenDriftModel(b)
	if _, err := Score(m, s5); err != nil { // warm the cached marginals and tables
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Score(m, s5); err != nil {
			b.Fatal(err)
		}
	}
}
