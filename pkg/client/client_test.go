package client

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"entropyip/internal/core"
	"entropyip/internal/ip6"
	"entropyip/internal/registry"
	"entropyip/internal/serve"
)

// testAddrs synthesizes a structured network with a large address
// support, mirroring the serve package's test fixture.
func testAddrs(n int, seed int64) []ip6.Addr {
	rng := rand.New(rand.NewSource(seed))
	base := ip6.MustParseAddr("2001:db8::")
	out := make([]ip6.Addr, n)
	for i := range out {
		a := base
		a = a.SetField(8, 2, uint64(rng.Intn(8)))
		a = a.SetField(16, 16, rng.Uint64())
		out[i] = a
	}
	return out
}

// newServer starts a real serving plane with one trained model "web"
// and returns a Client pointed at it.
func newServer(t *testing.T) *Client {
	t.Helper()
	c, _ := newServerURL(t)
	return c
}

// newServerURL is newServer plus the base URL, for tests that hit
// endpoints the client doesn't wrap (the trace debug endpoint).
func newServerURL(t testing.TB) (*Client, string) {
	t.Helper()
	reg, err := registry.Open(t.TempDir(), 8)
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.Build(testAddrs(1500, 1), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Put("web", m); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(serve.New(reg, serve.Options{}))
	t.Cleanup(srv.Close)
	return New(srv.URL, srv.Client()), srv.URL
}

// collect gathers every event of one Generate call.
func collect(t *testing.T, c *Client, opts GenerateOptions) (*GenerateResult, []Event) {
	t.Helper()
	var events []Event
	res, err := c.Generate(context.Background(), "web", opts, func(e Event) bool {
		events = append(events, e)
		return true
	})
	if err != nil {
		t.Fatalf("Generate(%+v): %v", opts, err)
	}
	return res, events
}

// TestGenerateEncodingsAgree checks NDJSON and binary yield the
// identical event sequence for the same seed, in both address and
// prefix mode.
func TestGenerateEncodingsAgree(t *testing.T) {
	c := newServer(t)
	for _, prefixes := range []bool{false, true} {
		opts := GenerateOptions{Count: 300, Seed: seed(42), Prefixes: prefixes}
		resText, text := collect(t, c, opts)
		opts.Binary = true
		resBin, bin := collect(t, c, opts)

		if resText.Encoding != "ndjson" || resBin.Encoding != "binary" {
			t.Fatalf("encodings = %q/%q", resText.Encoding, resBin.Encoding)
		}
		if len(resText.Seeds) != 1 || resText.Seeds[0] != 42 || len(resBin.Seeds) != 1 || resBin.Seeds[0] != 42 {
			t.Fatalf("seeds = %v / %v, want [42]", resText.Seeds, resBin.Seeds)
		}
		if resText.Candidates == 0 || resText.Candidates != resBin.Candidates {
			t.Fatalf("candidates = %d text vs %d binary", resText.Candidates, resBin.Candidates)
		}
		if len(text) != len(bin) {
			t.Fatalf("prefixes=%v: %d text events vs %d binary", prefixes, len(text), len(bin))
		}
		for i := range text {
			if fmt.Sprint(text[i]) != fmt.Sprint(bin[i]) {
				t.Fatalf("prefixes=%v: event %d differs: %+v vs %+v", prefixes, i, text[i], bin[i])
			}
		}
		if last := text[len(text)-1]; last.Kind != KindStreamEnd {
			t.Fatalf("last event = %+v, want stream end", last)
		}
	}
}

// TestGenerateBatch checks batch demultiplexing over both encodings:
// per-stream sequences equal the corresponding single-stream calls, and
// every stream ends.
func TestGenerateBatch(t *testing.T) {
	c := newServer(t)
	specs := []StreamSpec{
		{Count: 30, Seed: seed(7)},
		{Count: 30, Seed: seed(8)},
	}
	for _, binary := range []bool{false, true} {
		res, events := collect(t, c, GenerateOptions{Streams: specs, Binary: binary})
		if len(res.Seeds) != 2 || res.Seeds[0] != 7 || res.Seeds[1] != 8 {
			t.Fatalf("binary=%v: seeds = %v", binary, res.Seeds)
		}
		byStream := map[int][]string{}
		ended := map[int]bool{}
		for _, e := range events {
			switch e.Kind {
			case KindCandidate:
				byStream[e.Stream] = append(byStream[e.Stream], e.Addr.String())
			case KindStreamEnd:
				ended[e.Stream] = true
			case KindStreamError:
				t.Fatalf("stream %d error: %s", e.Stream, e.Err)
			}
		}
		for i, spec := range specs {
			if !ended[i] {
				t.Errorf("binary=%v: stream %d did not end", binary, i)
			}
			_, ref := collect(t, c, GenerateOptions{Count: spec.Count, Seed: spec.Seed})
			var want []string
			for _, e := range ref {
				if e.Kind == KindCandidate {
					want = append(want, e.Addr.String())
				}
			}
			if fmt.Sprint(byStream[i]) != fmt.Sprint(want) {
				t.Errorf("binary=%v: stream %d differs from single-stream call", binary, i)
			}
		}
	}
}

// TestAPIError checks non-2xx envelopes decode into typed *APIError.
func TestAPIError(t *testing.T) {
	c := newServer(t)
	_, err := c.Generate(context.Background(), "web", GenerateOptions{Count: 0}, func(Event) bool { return true })
	var apiErr *APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("err = %v, want *APIError", err)
	}
	if apiErr.Status != http.StatusBadRequest || apiErr.Code != "invalid_request" {
		t.Errorf("apiErr = %+v", apiErr)
	}
	if apiErr.RequestID == "" {
		t.Error("missing request ID")
	}

	_, err = c.Observe(context.Background(), "missing", testAddrs(2, 1))
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusNotFound || apiErr.Code != "not_found" {
		t.Errorf("observe err = %v", err)
	}
}

// TestModelNameEscaped checks that a model name carrying URL syntax
// reaches the server as one path segment: the registry answers with its
// not-found envelope, never with another model's candidates or a bare
// routing status.
func TestModelNameEscaped(t *testing.T) {
	c := newServer(t)
	for _, name := range []string{"web/generate?", "web?x", "web#x", "web/../web", "w%65b"} {
		n := 0
		_, err := c.Generate(context.Background(), name, GenerateOptions{Count: 5, Seed: seed(1)}, func(e Event) bool {
			if e.Kind == KindCandidate {
				n++
			}
			return true
		})
		var apiErr *APIError
		if !errors.As(err, &apiErr) || apiErr.Status != http.StatusNotFound || apiErr.Code != "not_found" {
			t.Errorf("Generate(%q): err = %v, want the not_found envelope", name, err)
		}
		if n != 0 {
			t.Errorf("Generate(%q): %d candidates, want none", name, n)
		}
		_, err = c.Observe(context.Background(), name, testAddrs(2, 1))
		if !errors.As(err, &apiErr) || apiErr.Status != http.StatusNotFound || apiErr.Code != "not_found" {
			t.Errorf("Observe(%q): err = %v, want the not_found envelope", name, err)
		}
	}
}

// TestObserve pushes addresses over the binary encoding and checks they
// all land in the window.
func TestObserve(t *testing.T) {
	c := newServer(t)
	addrs := testAddrs(5000, 3)
	res, err := c.Observe(context.Background(), "web", addrs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted != len(addrs) || res.Invalid != 0 {
		t.Errorf("result = %+v, want %d accepted", res, len(addrs))
	}
}

// TestGenerateEarlyStop checks yield returning false stops the stream
// without error.
func TestGenerateEarlyStop(t *testing.T) {
	c := newServer(t)
	seen := 0
	res, err := c.Generate(context.Background(), "web",
		GenerateOptions{Count: 10000, Seed: seed(1), Binary: true},
		func(e Event) bool {
			if e.Kind == KindCandidate {
				seen++
			}
			return seen < 10
		})
	if err != nil {
		t.Fatal(err)
	}
	if seen != 10 {
		t.Errorf("saw %d candidates after stop, want 10", seen)
	}
	_ = res
}

// TestTraceRoundTrip pins the propagation contract the CLIs rely on:
// WithTrace mints a trace context, every request under that ctx carries
// it as a traceparent, the server joins it (results echo the trace ID),
// and a generate + observe round comes back from /v1/debug/traces as one
// connected trace under the minted ID.
func TestTraceRoundTrip(t *testing.T) {
	c, base := newServerURL(t)
	ctx, id := WithTrace(context.Background())
	if len(id) != 32 {
		t.Fatalf("minted trace ID %q, want 32 hex chars", id)
	}

	res, err := c.Generate(ctx, "web",
		GenerateOptions{Count: 50, Seed: seed(9), Binary: true},
		func(Event) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	if res.TraceID != id {
		t.Errorf("generate trace ID = %q, want minted %q", res.TraceID, id)
	}
	or, err := c.Observe(ctx, "web", testAddrs(10, 2))
	if err != nil {
		t.Fatal(err)
	}
	if or.TraceID != id {
		t.Errorf("observe trace ID = %q, want minted %q", or.TraceID, id)
	}

	// Both requests merged into one connected trace in the flight
	// recorder, fetchable by the minted ID.
	resp, err := http.Get(base + "/v1/debug/traces?trace_id=" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("debug/traces status = %d", resp.StatusCode)
	}
	var dbg serve.DebugTracesResponse
	if err := json.NewDecoder(resp.Body).Decode(&dbg); err != nil {
		t.Fatal(err)
	}
	if dbg.Trace == nil || dbg.Trace.Root == nil {
		t.Fatal("no trace tree returned for minted ID")
	}
	if dbg.Trace.TraceID != id {
		t.Errorf("tree trace ID = %q, want %q", dbg.Trace.TraceID, id)
	}
	if dbg.Trace.Root.Name != "trace" {
		t.Fatalf("root = %q, want synthetic merge root \"trace\"", dbg.Trace.Root.Name)
	}
	names := map[string]bool{}
	for _, ch := range dbg.Trace.Root.Children {
		names[ch.Name] = true
	}
	if !names["POST /v1/models/{name}/generate"] || !names["POST /v1/models/{name}/observe"] {
		t.Errorf("merged round missing request spans; have %v", names)
	}

	// Error envelopes under the same ctx carry the trace ID too.
	_, err = c.Generate(ctx, "web", GenerateOptions{Count: 0}, func(Event) bool { return true })
	var apiErr *APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("err = %v, want *APIError", err)
	}
	if apiErr.TraceID != id {
		t.Errorf("APIError trace ID = %q, want %q", apiErr.TraceID, id)
	}
}

func seed(v int64) *int64 { return &v }
