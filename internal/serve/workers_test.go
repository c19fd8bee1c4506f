package serve

import (
	"bytes"
	"io"
	"net/http"
	"testing"

	"entropyip/internal/bayes"
)

// TestTrainWorkersOption trains the same address set with different
// per-request worker counts (and the server-wide default) and asserts the
// stored models are byte-identical — the serving layer's face of the
// training pipeline's determinism guarantee.
func TestTrainWorkersOption(t *testing.T) {
	lines := make([]string, 0, 1500)
	for _, a := range testAddrs(1500, 9) {
		lines = append(lines, a.String())
	}

	s, reg := newTestServer(t, Options{TrainWorkers: 1})
	for i, workers := range []int{0, 1, 8} {
		w := do(t, s, "PUT", "/v1/models/det", PutModelRequest{
			Addresses: lines,
			Options:   TrainOptions{Workers: workers},
		})
		if w.Code != http.StatusCreated {
			t.Fatalf("workers=%d: status = %d: %s", workers, w.Code, w.Body.String())
		}
		var resp PutModelResponse
		decode(t, w, &resp)
		if resp.Info.Version != i+1 {
			t.Fatalf("workers=%d: version = %d, want %d", workers, resp.Info.Version, i+1)
		}
	}
	versions, err := reg.Versions("det")
	if err != nil {
		t.Fatal(err)
	}
	if len(versions) != 3 {
		t.Fatalf("%d versions, want 3", len(versions))
	}
	var want []byte
	for _, v := range versions {
		rc, _, err := reg.OpenRaw("det", v.Version)
		if err != nil {
			t.Fatal(err)
		}
		raw := readAll(t, rc)
		rc.Close()
		if want == nil {
			want = raw
			continue
		}
		if !bytes.Equal(raw, want) {
			t.Fatalf("version %d model bytes differ across worker counts", v.Version)
		}
	}
}

func readAll(t *testing.T, r io.Reader) []byte {
	t.Helper()
	b, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestTrainWorkersValidation rejects out-of-range worker requests before
// any parsing or queueing happens.
func TestTrainWorkersValidation(t *testing.T) {
	s, _ := newTestServer(t, Options{})
	for _, workers := range []int{-1, MaxTrainWorkers + 1} {
		w := do(t, s, "PUT", "/v1/models/bad", PutModelRequest{
			Addresses: []string{"2001:db8::1"},
			Options:   TrainOptions{Workers: workers},
		})
		if w.Code != http.StatusBadRequest {
			t.Fatalf("workers=%d: status = %d, want 400", workers, w.Code)
		}
	}
}

// TestTrainMaxParentsValidation rejects max_parents outside
// 0..bayes.MaxParentsLimit before any training runs.
func TestTrainMaxParentsValidation(t *testing.T) {
	s, _ := newTestServer(t, Options{})
	for _, maxParents := range []int{-1, bayes.MaxParentsLimit + 1, 17} {
		w := do(t, s, "PUT", "/v1/models/bad", PutModelRequest{
			Addresses: []string{"2001:db8::1"},
			Options:   TrainOptions{MaxParents: maxParents},
		})
		if w.Code != http.StatusBadRequest {
			t.Fatalf("max_parents=%d: status = %d, want 400", maxParents, w.Code)
		}
	}
}
