package serve

import (
	"context"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"entropyip/internal/drift"
	"entropyip/internal/ingest"
	"entropyip/internal/obs/trace"
)

// sampledTraceparent is a fixed W3C traceparent with the sampled flag on;
// the server must join this trace and force-keep it.
const sampledTraceparent = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"

// TestTraceparentRoundTrip pins the propagation contract: a request
// carrying a sampled traceparent joins that trace (X-Trace-Id echoes the
// inbound trace ID), the flight recorder retains it (sampled == forced
// keep), and GET /v1/debug/traces?trace_id= returns the span tree with
// the route as the root span.
func TestTraceparentRoundTrip(t *testing.T) {
	s, reg := newTestServer(t, Options{})
	if _, err := reg.Put("web", testModel(t, 1)); err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest("GET", "/v1/models/web", nil)
	req.Header.Set("Traceparent", sampledTraceparent)
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d body %s", w.Code, w.Body.String())
	}
	wantID := "4bf92f3577b34da6a3ce929d0e0e4736"
	if got := w.Result().Header.Get("X-Trace-Id"); got != wantID {
		t.Fatalf("X-Trace-Id = %q, want inbound trace ID %q", got, wantID)
	}

	w = do(t, s, "GET", "/v1/debug/traces?trace_id="+wantID, nil)
	if w.Code != http.StatusOK {
		t.Fatalf("debug/traces status = %d body %s", w.Code, w.Body.String())
	}
	var resp DebugTracesResponse
	decode(t, w, &resp)
	if resp.Trace == nil {
		t.Fatal("trace_id fetch returned no tree")
	}
	if resp.Trace.TraceID != wantID {
		t.Errorf("tree trace_id = %q, want %q", resp.Trace.TraceID, wantID)
	}
	if resp.Trace.Kept != "forced" {
		t.Errorf("kept = %q, want \"forced\" (inbound sampled flag)", resp.Trace.Kept)
	}
	if resp.Trace.Root == nil || resp.Trace.Root.Name != "GET /v1/models/{name}" {
		t.Errorf("root = %+v, want route-named root span", resp.Trace.Root)
	}
	if resp.Trace.RemoteParent == "" {
		t.Errorf("remote parent not recorded on a joined trace")
	}
}

// TestTraceIDInErrorEnvelope checks the error envelope carries the trace
// ID of the failed request, matching the X-Trace-Id header.
func TestTraceIDInErrorEnvelope(t *testing.T) {
	s, _ := newTestServer(t, Options{})
	w := do(t, s, "GET", "/v1/models/nope", nil)
	if w.Code != http.StatusNotFound {
		t.Fatalf("status = %d", w.Code)
	}
	var er struct {
		Error ErrorBody `json:"error"`
	}
	decode(t, w, &er)
	want := w.Result().Header.Get("X-Trace-Id")
	if want == "" || er.Error.TraceID != want {
		t.Errorf("envelope trace_id = %q, X-Trace-Id = %q (must match, non-empty)",
			er.Error.TraceID, want)
	}
}

// TestInboundRequestID pins the X-Request-Id honoring rules: a
// well-formed client ID is echoed verbatim; malformed or oversized ones
// are replaced with a minted ID, never truncated or quoted through.
func TestInboundRequestID(t *testing.T) {
	s, _ := newTestServer(t, Options{})
	send := func(id string) string {
		req := httptest.NewRequest("GET", "/healthz", nil)
		if id != "" {
			req.Header.Set("X-Request-Id", id)
		}
		w := httptest.NewRecorder()
		s.ServeHTTP(w, req)
		return w.Result().Header.Get("X-Request-Id")
	}
	for _, ok := range []string{"abc-123", "A.B_C-9", strings.Repeat("x", 128)} {
		if got := send(ok); got != ok {
			t.Errorf("valid id %q not honored: echoed %q", ok, got)
		}
	}
	for _, bad := range []string{"has space", "new\nline", `quote"`, "non-ascii-é", strings.Repeat("x", 129)} {
		got := send(bad)
		if got == bad || got == "" {
			t.Errorf("invalid id %q: echoed %q, want a minted replacement", bad, got)
		}
	}
	if got := send(""); got == "" {
		t.Error("no inbound id: no minted id echoed")
	}
}

// TestDebugTracesEndpoint covers the listing and error forms of
// GET /v1/debug/traces.
func TestDebugTracesEndpoint(t *testing.T) {
	// SampleEvery 1 keeps every trace, so the listing is deterministic.
	s, _ := newTestServer(t, Options{Trace: trace.Policy{SampleEvery: 1}})
	for i := 0; i < 3; i++ {
		do(t, s, "GET", "/healthz", nil)
	}
	w := do(t, s, "GET", "/v1/debug/traces?limit=2", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d", w.Code)
	}
	var resp DebugTracesResponse
	decode(t, w, &resp)
	if len(resp.Traces) != 2 {
		t.Fatalf("limit=2 returned %d traces", len(resp.Traces))
	}
	if resp.Recorder.Kept < 3 {
		t.Errorf("recorder stats kept = %d, want >= 3", resp.Recorder.Kept)
	}
	for _, sum := range resp.Traces {
		if sum.Root != "GET /healthz" && sum.Root != "GET /v1/debug/traces" {
			t.Errorf("unexpected root %q in listing", sum.Root)
		}
	}

	if w = do(t, s, "GET", "/v1/debug/traces?trace_id=zzz", nil); w.Code != http.StatusBadRequest {
		t.Errorf("bad trace_id: status = %d, want 400", w.Code)
	}
	missing := "00000000000000000000000000000001"
	if w = do(t, s, "GET", "/v1/debug/traces?trace_id="+missing, nil); w.Code != http.StatusNotFound {
		t.Errorf("missing trace: status = %d, want 404", w.Code)
	}
	if w = do(t, s, "GET", "/v1/debug/traces?limit=-1", nil); w.Code != http.StatusBadRequest {
		t.Errorf("bad limit: status = %d, want 400", w.Code)
	}
}

// TestBatchGenerateChildSpans checks a batch generate request's trace has
// one generate.stream child per stream, each with its stream index and
// produced count.
func TestBatchGenerateChildSpans(t *testing.T) {
	s, reg := newTestServer(t, Options{})
	if _, err := reg.Put("web", testModel(t, 2)); err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest("POST", "/v1/models/web/generate",
		strings.NewReader(`{"streams":[{"count":50,"seed":1},{"count":70,"seed":2},{"count":30,"seed":3}]}`))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Traceparent", sampledTraceparent)
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d body %s", w.Code, w.Body.String())
	}
	tid, err := trace.ParseTraceID(w.Result().Header.Get("X-Trace-Id"))
	if err != nil {
		t.Fatal(err)
	}
	tree, ok := s.recorder.Get(tid)
	if !ok {
		t.Fatal("batch generate trace not retained despite sampled traceparent")
	}
	var streams []*trace.Node
	for _, child := range tree.Root.Children {
		if child.Name == "generate.stream" {
			streams = append(streams, child)
		}
	}
	if len(streams) != 3 {
		t.Fatalf("generate.stream children = %d, want 3 (tree root children: %d)",
			len(streams), len(tree.Root.Children))
	}
	seen := map[int64]bool{}
	for _, st := range streams {
		idx, ok := st.Attrs["stream"].(int64)
		if !ok {
			t.Fatalf("stream child without stream attr: %+v", st.Attrs)
		}
		seen[idx] = true
		if p, ok := st.Attrs["produced"].(int64); !ok || p <= 0 {
			t.Errorf("stream %d produced attr = %v", idx, st.Attrs["produced"])
		}
	}
	if !seen[0] || !seen[1] || !seen[2] {
		t.Errorf("stream indexes seen = %v, want 0,1,2", seen)
	}
}

// TestRotationTraceShape drives the refresh loop through a drift-triggered
// rotation and checks the retrain's own root trace has the full chain as
// children: pool.wait, train (with pipeline stages under it), shadow.eval
// and rotate.
func TestRotationTraceShape(t *testing.T) {
	variantA := refreshPlan([]uint64{0x0001, 0x0002}, []float64{0.7, 0.3})
	variantB := refreshPlan([]uint64{0x00a1, 0x00a2}, []float64{0.5, 0.5})
	s, reg := newTestServer(t, Options{
		Workers: 1,
		// Keep every trace: a fast retrain may beat the slow threshold.
		Trace: trace.Policy{SampleEvery: 1},
		Refresh: RefreshOptions{
			AutoRefresh:   true,
			EvaluateEvery: 512,
			Ingest:        ingest.Config{WindowSize: 4096},
			Drift:         drift.Config{Enter: 0.15, Consecutive: 2, MinWindow: 256},
		},
	})
	if _, err := reg.Put("live", buildOn(t, variantA, 3000, 1)); err != nil {
		t.Fatal(err)
	}
	r := s.Refresher()
	traffic := rand.New(rand.NewSource(7))
	deadline := time.Now().Add(30 * time.Second)
	for {
		if _, err := r.Observe(context.Background(), "live", draw(variantB, traffic, 512)); err != nil {
			t.Fatal(err)
		}
		st, _ := r.Status("live")
		if st.Rotations >= 1 && !st.Retraining {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no rotation before deadline: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}

	var tree trace.Tree
	found := false
	for _, sum := range s.recorder.List(0) {
		if sum.Root != "refresh.retrain" {
			continue
		}
		id, err := trace.ParseTraceID(sum.TraceID)
		if err != nil {
			t.Fatal(err)
		}
		if tr, ok := s.recorder.Get(id); ok && childNames(tr.Root)["rotate"] {
			tree, found = tr, true
			break
		}
	}
	if !found {
		t.Fatal("no refresh.retrain trace with a rotate span retained")
	}
	names := childNames(tree.Root)
	for _, want := range []string{"pool.wait", "train", "shadow.eval", "rotate"} {
		if !names[want] {
			t.Errorf("retrain trace missing %q child (have %v)", want, names)
		}
	}
	if tree.Root.Attrs["model"] != "live" {
		t.Errorf("retrain root model attr = %v", tree.Root.Attrs["model"])
	}
	for _, child := range tree.Root.Children {
		if child.Name != "train" {
			continue
		}
		if len(child.Children) == 0 {
			t.Error("train span has no pipeline-stage children")
		}
	}
}

// childNames collects the names of a node's direct children.
func childNames(n *trace.Node) map[string]bool {
	out := map[string]bool{}
	for _, c := range n.Children {
		out[c.Name] = true
	}
	return out
}
