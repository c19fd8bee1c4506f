package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"entropyip/internal/synth"
)

// TestBuildGoldenModelHashes pins the exact bytes Model.Save writes for
// three synthetic datasets (10k addresses, seed 1, default options).
// Training is deterministic, so any change to profiling, ACR,
// segmentation, mining or learning that alters a model — even by one
// mined bound or one CPT bit — fails here. A change that is meant to
// alter models updates these hashes and says why.
func TestBuildGoldenModelHashes(t *testing.T) {
	golden := map[string]string{
		"S1": "9464051661d829edf5767566b11678629a39b2ad48b95ce95c0ecafe7e23ec62",
		"R1": "cd5fad5a78324b668b72af9ca820704fa65e96742ea6cbfb1e2af3d3ae46082c",
		"C1": "d4ea1010bb8b0f192db3a5ffddf97c0288af18966628b7dcbbf1d5df34659e2d",
	}
	for _, ds := range goldenDatasets {
		sum := sha256.Sum256(goldenModelBytes(t, ds))
		if got := hex.EncodeToString(sum[:]); got != golden[ds] {
			t.Errorf("%s: Model.Save SHA-256 = %s, want %s", ds, got, golden[ds])
		}
	}
}

// goldenDatasets are the synthetic datasets whose models are pinned.
var goldenDatasets = []string{"S1", "R1", "C1"}

// goldenModelBytes trains a model on 10k addresses of a synthetic
// dataset (seed 1, default options) and returns its Model.Save bytes.
func goldenModelBytes(t testing.TB, ds string) []byte {
	t.Helper()
	addrs, err := synth.Generate(ds, 10_000, 1)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Build(addrs, Options{})
	if err != nil {
		t.Fatalf("%s: %v", ds, err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
