package serve

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"testing"

	"entropyip/internal/bayes"
)

// TestTrainIgnoresWorkersOption pins API compatibility for the removed
// "options.workers" training field: a request that still carries it is
// accepted and stores the same model bytes as the request without it.
// The server trains on all cores either way.
func TestTrainIgnoresWorkersOption(t *testing.T) {
	lines := make([]string, 0, 1500)
	for _, a := range testAddrs(1500, 9) {
		lines = append(lines, a.String())
	}
	addrs := jsonBody(t, lines)
	s, reg := newTestServer(t, Options{})
	for i, extra := range []string{``, `,"options":{"workers":8}`} {
		body := fmt.Sprintf(`{"addresses":%s%s}`, addrs, extra)
		w := doHeaders(t, s, "PUT", "/v1/models/det", []byte(body), nil)
		if w.Code != http.StatusCreated {
			t.Fatalf("%q: status = %d: %s", extra, w.Code, w.Body.String())
		}
		var resp PutModelResponse
		decode(t, w, &resp)
		if resp.Info.Version != i+1 {
			t.Fatalf("%q: version = %d, want %d", extra, resp.Info.Version, i+1)
		}
	}
	var models [2][]byte
	for i := range models {
		rc, _, err := reg.OpenRaw("det", i+1)
		if err != nil {
			t.Fatal(err)
		}
		models[i] = readAll(t, rc)
		rc.Close()
	}
	if !bytes.Equal(models[0], models[1]) {
		t.Fatal("model trained with options.workers differs from the one trained without it")
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
