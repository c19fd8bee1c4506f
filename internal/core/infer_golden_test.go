package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"entropyip/internal/ip6"
	"entropyip/internal/synth"
)

// TestInferenceGoldenHashes pins the exact outputs of everything that runs
// exact inference over the network, for 1k-trained S5 and C1 models (seed
// 1, default options): evidence-conditioned Generate streams at one and
// two workers, Browse under the same evidence, Marginals and
// Dependencies. Inference is deterministic, so a change to variable
// elimination, its factor order or the conditional sampler that alters a
// posterior by one bit fails here. A change that is meant to alter
// inference updates these hashes and says why. The browse hash is over
// SegmentDistribution's JSON, so it also covers the browse response's
// wire names.
func TestInferenceGoldenHashes(t *testing.T) {
	golden := map[string]map[string]string{
		"S5": {
			"generate_w1":  "da49abb3706a3daf8ce69526cd0898035b1f8096a3a5b55161747481472aaece",
			"generate_w2":  "da49abb3706a3daf8ce69526cd0898035b1f8096a3a5b55161747481472aaece",
			"browse":       "c93a6291781d537ecfbdcf26a56c77eb12b79eef8840a373beb6aec992c3f573",
			"marginals":    "041b1e20a66bc25e516d7ca5164bd8c7cc6ef81ce9e2e0e11c774127b59e5910",
			"dependencies": "f3b818d30611a7938636ff891b60bd370564cc7c33b8a333f6911fecfc8b0de4",
		},
		"C1": {
			"generate_w1":  "7636d21f09f4a5781fdfefe934895bfbd5eaed2778782207d9fe2093ede75df3",
			"generate_w2":  "7636d21f09f4a5781fdfefe934895bfbd5eaed2778782207d9fe2093ede75df3",
			"browse":       "ecb70ef4dd2394c940a2c6ff89f18659b2d7e6f8d805e4368a2e3fc99c45fe9a",
			"marginals":    "793261f107b7eb6bf00a3a3816a78880ce3854eff1c4ab11b842aca54931516b",
			"dependencies": "3a300154bd9fa479a40ea1b776defddc49945cc1f7980190b339774c14191f0f",
		},
	}
	for _, ds := range []string{"S5", "C1"} {
		addrs, err := synth.Generate(ds, 1000, 1)
		if err != nil {
			t.Fatal(err)
		}
		m, err := Build(addrs, Options{})
		if err != nil {
			t.Fatalf("%s: %v", ds, err)
		}
		ev := goldenEvidence(t, m, addrs[0])
		got := map[string]string{}
		for name, workers := range map[string]int{"generate_w1": 1, "generate_w2": 2} {
			cands, err := m.Generate(GenerateOptions{Count: 2000, Seed: 3, Evidence: ev, Workers: workers})
			if err != nil {
				t.Fatalf("%s %s: %v", ds, name, err)
			}
			if len(cands) != 2000 {
				t.Fatalf("%s %s: %d candidates, want 2000", ds, name, len(cands))
			}
			h := sha256.New()
			for _, a := range cands {
				b := a.Bytes()
				h.Write(b[:])
			}
			got[name] = hex.EncodeToString(h.Sum(nil))
		}
		dists, err := m.Browse(ev)
		if err != nil {
			t.Fatalf("%s browse: %v", ds, err)
		}
		got["browse"] = jsonHash(t, dists)
		marg, err := m.Marginals()
		if err != nil {
			t.Fatalf("%s marginals: %v", ds, err)
		}
		got["marginals"] = jsonHash(t, marg)
		got["dependencies"] = jsonHash(t, m.Dependencies())
		for name, want := range golden[ds] {
			if got[name] != want {
				t.Errorf("%s %s: SHA-256 = %s, want %s", ds, name, got[name], want)
			}
		}
	}
}

// goldenEvidence conditions on a's codes for the first and the last
// segment with more than one mined value, so that evidence sits both
// before and after the segments whose posteriors it moves.
func goldenEvidence(t *testing.T, m *Model, a ip6.Addr) Evidence {
	t.Helper()
	var labels []string
	for _, sm := range m.Segments {
		if sm.Arity() > 1 {
			labels = append(labels, sm.Seg.Label)
		}
	}
	if len(labels) < 2 {
		t.Fatalf("model has %d multi-valued segments", len(labels))
	}
	ev, err := m.EvidenceFromAddr(a, labels[0], labels[len(labels)-1])
	if err != nil {
		t.Fatal(err)
	}
	return ev
}

// jsonHash returns the hex SHA-256 of v's JSON encoding, which writes
// every float64 in its shortest exact round-trip form.
func jsonHash(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
