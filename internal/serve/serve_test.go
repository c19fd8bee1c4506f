package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"

	"entropyip/internal/bayes"
	"entropyip/internal/core"
	"entropyip/internal/ip6"
	"entropyip/internal/registry"
	"entropyip/internal/segment"
)

// testAddrs synthesizes a structured network with a large address support
// (pseudo-random IIDs), so that streaming tests can draw tens of
// thousands of unique candidates.
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

func testModel(t *testing.T, seed int64) *core.Model {
	t.Helper()
	m, err := core.Build(testAddrs(1500, seed), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// newTestServer returns a Server over a fresh registry plus the registry.
func newTestServer(t *testing.T, opts Options) (*Server, *registry.Registry) {
	t.Helper()
	reg, err := registry.Open(t.TempDir(), 8)
	if err != nil {
		t.Fatal(err)
	}
	return New(reg, opts), reg
}

// seedPtr builds the optional seed field of a GenerateRequest.
func seedPtr(v int64) *int64 { return &v }

// do issues a JSON request against the handler and returns the recorder.
func do(t *testing.T, s *Server, method, path string, body interface{}) *httptest.ResponseRecorder {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req := httptest.NewRequest(method, path, &buf)
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	return w
}

func decode(t *testing.T, w *httptest.ResponseRecorder, v interface{}) {
	t.Helper()
	if err := json.Unmarshal(w.Body.Bytes(), v); err != nil {
		t.Fatalf("decoding response %q: %v", w.Body.String(), err)
	}
}

func TestListEmptyAndPopulated(t *testing.T) {
	s, reg := newTestServer(t, Options{})
	w := do(t, s, "GET", "/v1/models", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d", w.Code)
	}
	var list ListModelsResponse
	decode(t, w, &list)
	if len(list.Models) != 0 {
		t.Errorf("expected empty list, got %d", len(list.Models))
	}

	if _, err := reg.Put("web", testModel(t, 1)); err != nil {
		t.Fatal(err)
	}
	w = do(t, s, "GET", "/v1/models", nil)
	decode(t, w, &list)
	if len(list.Models) != 1 || list.Models[0].Name != "web" || list.Models[0].Version != 1 {
		t.Errorf("list = %+v", list.Models)
	}
}

func TestUploadModel(t *testing.T) {
	s, _ := newTestServer(t, Options{})
	m := testModel(t, 1)
	raw, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	w := do(t, s, "PUT", "/v1/models/web", PutModelRequest{Model: raw})
	if w.Code != http.StatusCreated {
		t.Fatalf("status = %d: %s", w.Code, w.Body.String())
	}
	var resp PutModelResponse
	decode(t, w, &resp)
	if resp.Trained {
		t.Error("upload must not report trained")
	}
	if resp.Info.Version != 1 || resp.Info.TrainCount != m.TrainCount {
		t.Errorf("info = %+v", resp.Info)
	}

	// Second upload bumps the version.
	w = do(t, s, "PUT", "/v1/models/web", PutModelRequest{Model: raw})
	decode(t, w, &resp)
	if resp.Info.Version != 2 {
		t.Errorf("second upload version = %d", resp.Info.Version)
	}
}

func TestUploadErrors(t *testing.T) {
	s, _ := newTestServer(t, Options{})
	cases := []struct {
		name   string
		path   string
		body   interface{}
		status int
	}{
		{"invalid name", "/v1/models/.hidden", PutModelRequest{}, http.StatusBadRequest},
		{"empty request", "/v1/models/web", PutModelRequest{}, http.StatusBadRequest},
		{"corrupt model", "/v1/models/web", PutModelRequest{Model: json.RawMessage(`{"version":99}`)}, http.StatusBadRequest},
		{"both model and addresses", "/v1/models/web", map[string]interface{}{
			"model": json.RawMessage(`{}`), "addresses": []string{"::1"},
		}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		w := do(t, s, "PUT", tc.path, tc.body)
		if w.Code != tc.status {
			t.Errorf("%s: status = %d, want %d (%s)", tc.name, w.Code, tc.status, w.Body.String())
		}
	}

	// Malformed JSON body.
	req := httptest.NewRequest("PUT", "/v1/models/web", strings.NewReader("{"))
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code != http.StatusBadRequest {
		t.Errorf("malformed JSON: status = %d", w.Code)
	}
}

// TestUploadLearnOptionsValidation rejects an uploaded model whose learn
// options a refresh retrain would refuse: a model file is untrusted, and
// an unbounded max_parent_configs lets structure search allocate without
// bound.
func TestUploadLearnOptionsValidation(t *testing.T) {
	s, _ := newTestServer(t, Options{})
	raw, err := json.Marshal(testModel(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		field string
		value int64
	}{
		{"max_parents", 100},
		{"max_parents", -1},
		{"max_parent_configs", 1_000_000_000_000},
		{"max_parent_configs", -1},
	} {
		var doc map[string]any
		if err := json.Unmarshal(raw, &doc); err != nil {
			t.Fatal(err)
		}
		doc["options"].(map[string]any)["learn"].(map[string]any)[tc.field] = tc.value
		bad, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		w := do(t, s, "PUT", "/v1/models/web", PutModelRequest{Model: bad})
		if w.Code != http.StatusBadRequest {
			t.Errorf("learn.%s=%d: status = %d, want 400 (%s)", tc.field, tc.value, w.Code, w.Body.String())
		}
	}
}

// TestUploadArityBound uploads a model whose one segment has
// core.MaxArity values, which loads, and one with a value more, which
// is refused with a 400 before its encoder is compiled.
func TestUploadArityBound(t *testing.T) {
	s, _ := newTestServer(t, Options{})
	doc := func(n int) json.RawMessage {
		values := make([]map[string]any, n)
		row := make([]float64, n)
		for k := range values {
			values[k] = map[string]any{"code": fmt.Sprint("A", k+1), "lo": k, "hi": k, "count": 1, "step": 1}
			row[k] = 1 / float64(n)
		}
		raw, err := json.Marshal(map[string]any{
			"version":  1,
			"segments": []map[string]any{{"label": "A", "start": 0, "width": 4, "total": n, "values": values}},
			"net": bayes.Network{
				Vars:    []bayes.Variable{{Name: "A", Arity: n}},
				Parents: [][]int{nil},
				CPTs:    []*bayes.CPT{{Arity: n, Rows: [][]float64{row}}},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	if w := do(t, s, "PUT", "/v1/models/wide", PutModelRequest{Model: doc(core.MaxArity)}); w.Code != http.StatusCreated {
		t.Fatalf("%d values: status = %d (%s)", core.MaxArity, w.Code, w.Body.String())
	}
	w := do(t, s, "PUT", "/v1/models/wide", PutModelRequest{Model: doc(core.MaxArity + 1)})
	if w.Code != http.StatusBadRequest || !strings.Contains(w.Body.String(), "more than the") {
		t.Errorf("%d values: status = %d (%s), want 400 naming the bound", core.MaxArity+1, w.Code, w.Body.String())
	}
}

// TestUploadValueOutsideSegment uploads a model whose four-nybble
// segment holds a value past 0xffff next to a range over the whole
// segment. Compiling its encoder would never end; the registry refuses
// the document as invalid and the upload answers 400.
func TestUploadValueOutsideSegment(t *testing.T) {
	s, reg := newTestServer(t, Options{})
	raw, err := json.Marshal(map[string]any{
		"version": 1,
		"segments": []map[string]any{{"label": "A", "start": 0, "width": 4, "total": 2, "values": []map[string]any{
			{"code": "A1", "lo": 0, "hi": 0xffff, "count": 1, "step": 4},
			{"code": "A2", "lo": 70000, "hi": 70000, "count": 1, "step": 1},
		}}},
		"net": bayes.Network{
			Vars:    []bayes.Variable{{Name: "A", Arity: 2}},
			Parents: [][]int{nil},
			CPTs:    []*bayes.CPT{{Arity: 2, Rows: [][]float64{{0.5, 0.5}}}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.PutRaw("far", raw); !errors.Is(err, registry.ErrInvalidModel) {
		t.Fatalf("PutRaw: err = %v, want ErrInvalidModel", err)
	}
	w := do(t, s, "PUT", "/v1/models/far", PutModelRequest{Model: raw})
	if w.Code != http.StatusBadRequest || !strings.Contains(w.Body.String(), "outside") {
		t.Errorf("status = %d (%s), want 400 naming the value range", w.Code, w.Body.String())
	}
}

func TestTrainFromAddresses(t *testing.T) {
	s, _ := newTestServer(t, Options{})
	lines := make([]string, 0, 1500)
	for _, a := range testAddrs(1500, 3) {
		lines = append(lines, a.String())
	}
	w := do(t, s, "PUT", "/v1/models/trained", PutModelRequest{Addresses: lines})
	if w.Code != http.StatusCreated {
		t.Fatalf("status = %d: %s", w.Code, w.Body.String())
	}
	var resp PutModelResponse
	decode(t, w, &resp)
	if !resp.Trained {
		t.Error("training must report trained")
	}
	if resp.Info.TrainCount != 1500 {
		t.Errorf("train count = %d", resp.Info.TrainCount)
	}

	// A bad address in the set is a 400, not a train failure.
	w = do(t, s, "PUT", "/v1/models/trained", PutModelRequest{Addresses: []string{"not-an-address"}})
	if w.Code != http.StatusBadRequest {
		t.Errorf("bad address: status = %d", w.Code)
	}

	// Training on an empty-after-parse set fails cleanly.
	w = do(t, s, "PUT", "/v1/models/trained", PutModelRequest{Addresses: []string{}, Model: nil})
	if w.Code != http.StatusBadRequest {
		t.Errorf("no addresses: status = %d", w.Code)
	}
}

func TestTrainPrefix64Option(t *testing.T) {
	s, _ := newTestServer(t, Options{})
	lines := make([]string, 0, 1500)
	for _, a := range testAddrs(1500, 3) {
		lines = append(lines, a.String())
	}
	w := do(t, s, "PUT", "/v1/models/p64", PutModelRequest{
		Addresses: lines,
		Options:   TrainOptions{Prefix64Only: true},
	})
	if w.Code != http.StatusCreated {
		t.Fatalf("status = %d: %s", w.Code, w.Body.String())
	}
	var resp PutModelResponse
	decode(t, w, &resp)
	if !resp.Info.Prefix64Only {
		t.Error("Prefix64Only option not applied")
	}
}

// TestTrainShedsLoad fills the worker pool and checks the next training
// request is answered 503 instead of queueing without bound.
func TestTrainShedsLoad(t *testing.T) {
	s, _ := newTestServer(t, Options{Workers: 1, QueueDepth: -1})
	block := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = s.pool.Do(context.Background(), func() error { <-block; return nil })
	}()
	// Wait until the worker token is actually held; with one worker and no
	// extra queue depth, the pool is then saturated.
	for len(s.pool.workers) < 1 {
		runtime.Gosched()
	}

	lines := []string{"2001:db8::1", "2001:db8::2"}
	w := do(t, s, "PUT", "/v1/models/busy", PutModelRequest{Addresses: lines})
	if w.Code != http.StatusServiceUnavailable {
		t.Errorf("saturated pool: status = %d, want 503 (%s)", w.Code, w.Body.String())
	}
	close(block)
	wg.Wait()
}

func TestBrowseMatchesDirect(t *testing.T) {
	s, reg := newTestServer(t, Options{})
	m := testModel(t, 1)
	if _, err := reg.Put("web", m); err != nil {
		t.Fatal(err)
	}

	for _, ev := range []map[string]string{nil, {"A": "A1"}} {
		w := do(t, s, "POST", "/v1/models/web/browse", BrowseRequest{Evidence: ev})
		if w.Code != http.StatusOK {
			t.Fatalf("status = %d: %s", w.Code, w.Body.String())
		}
		var resp BrowseResponse
		decode(t, w, &resp)

		direct, err := m.Browse(core.Evidence(ev))
		if err != nil {
			t.Fatal(err)
		}
		if len(resp.Distributions) != len(direct) {
			t.Fatalf("got %d distributions, want %d", len(resp.Distributions), len(direct))
		}
		for i, d := range direct {
			got := resp.Distributions[i]
			if got.Label != d.Label || len(got.Entries) != len(d.Entries) {
				t.Fatalf("distribution %d = %+v, want label %s with %d entries", i, got, d.Label, len(d.Entries))
			}
			for k, e := range d.Entries {
				ge := got.Entries[k]
				if ge.Code != e.Code || ge.Display != e.Display || ge.IsRange != e.IsRange {
					t.Errorf("%s entry %d metadata mismatch: %+v vs %+v", d.Label, k, ge, e)
				}
				if ge.Prob != e.Prob {
					t.Errorf("%s/%s prob = %v over HTTP, %v direct", d.Label, e.Code, ge.Prob, e.Prob)
				}
			}
		}
	}
}

// TestBrowseResponseKeys pins the browse response's JSON names, which
// core.SegmentDistribution and core.DistEntry now carry themselves:
// browseResponseJSON is the encoding the response had while serve kept
// its own copies of those types, so a renamed tag fails here.
func TestBrowseResponseKeys(t *testing.T) {
	resp := BrowseResponse{Name: "web", Version: 3, Distributions: []core.SegmentDistribution{
		{Label: "A", Entries: []core.DistEntry{
			{Code: "A1", Display: "2001:0db8", Prob: 0.75},
			{Code: "A2", Display: "2001:0db9-2001:0dbf", Prob: 0.25, IsRange: true},
		}},
		{Label: "B", Entries: []core.DistEntry{}},
	}}
	got, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != browseResponseJSON {
		t.Errorf("browse response:\n got  %s\n want %s", got, browseResponseJSON)
	}
}

const browseResponseJSON = `{"name":"web","version":3,"distributions":[` +
	`{"label":"A","entries":[{"code":"A1","display":"2001:0db8","prob":0.75},` +
	`{"code":"A2","display":"2001:0db9-2001:0dbf","prob":0.25,"is_range":true}]},` +
	`{"label":"B","entries":[]}]}`

func TestBrowseErrors(t *testing.T) {
	s, reg := newTestServer(t, Options{})
	if _, err := reg.Put("web", testModel(t, 1)); err != nil {
		t.Fatal(err)
	}
	w := do(t, s, "POST", "/v1/models/missing/browse", BrowseRequest{})
	if w.Code != http.StatusNotFound {
		t.Errorf("missing model: status = %d", w.Code)
	}
	w = do(t, s, "POST", "/v1/models/web/browse", BrowseRequest{Evidence: map[string]string{"ZZ": "Z1"}})
	if w.Code != http.StatusBadRequest {
		t.Errorf("bad evidence: status = %d", w.Code)
	}
	w = do(t, s, "POST", "/v1/models/web/browse", BrowseRequest{Version: 42})
	if w.Code != http.StatusNotFound {
		t.Errorf("bad version: status = %d", w.Code)
	}
}

// wideFactorModelJSON is a model file the loader accepts although exact
// inference on it needs a 64^6-entry (550 GB) factor: six two-nybble
// segments with 64 mined values each, then fifteen one-nybble segments
// with a single value, one for each pair of the first six and with that
// pair as its network parents. core's FuzzLoad seeds the same model.
func wideFactorModelJSON(t *testing.T) json.RawMessage {
	t.Helper()
	const roots, arity = 6, 64
	type value struct {
		Code  string `json:"code"`
		Lo    uint64 `json:"lo"`
		Hi    uint64 `json:"hi"`
		Count int    `json:"count"`
		Step  int    `json:"step"`
	}
	type seg struct {
		Label  string  `json:"label"`
		Start  int     `json:"start"`
		Width  int     `json:"width"`
		Total  int     `json:"total"`
		Values []value `json:"values"`
	}
	var segs []seg
	net := &bayes.Network{}
	add := func(width, values int, parents []int, rows [][]float64) {
		sg := seg{Label: segment.Label(len(segs)), Width: width, Total: values}
		if len(segs) > 0 {
			sg.Start = segs[len(segs)-1].Start + segs[len(segs)-1].Width
		}
		for k := 0; k < values; k++ {
			sg.Values = append(sg.Values, value{Code: fmt.Sprint(sg.Label, k+1), Lo: uint64(k), Hi: uint64(k), Count: 1, Step: 1})
		}
		segs = append(segs, sg)
		card := make([]int, len(parents))
		for k := range card {
			card[k] = arity
		}
		net.Vars = append(net.Vars, bayes.Variable{Name: sg.Label, Arity: values})
		net.Parents = append(net.Parents, parents)
		net.CPTs = append(net.CPTs, &bayes.CPT{ParentCard: card, Arity: values, Rows: rows})
	}
	uniform := make([]float64, arity)
	for k := range uniform {
		uniform[k] = 1.0 / arity
	}
	for i := 0; i < roots; i++ {
		add(2, arity, nil, [][]float64{uniform})
	}
	certain := make([][]float64, arity*arity)
	for r := range certain {
		certain[r] = []float64{1}
	}
	for a := 0; a < roots; a++ {
		for b := a + 1; b < roots; b++ {
			add(1, 1, []int{a, b}, certain)
		}
	}
	raw, err := json.Marshal(map[string]interface{}{"version": 1, "segments": segs, "net": net})
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestWideFactorModelRefused uploads a model whose exact inference would
// need a 550 GB factor: browse and evidence-conditioned generate answer
// 400 without building it, and the server stays up.
func TestWideFactorModelRefused(t *testing.T) {
	s, _ := newTestServer(t, Options{})
	if w := do(t, s, "PUT", "/v1/models/wide", PutModelRequest{Model: wideFactorModelJSON(t)}); w.Code != http.StatusCreated {
		t.Fatalf("upload: status = %d: %s", w.Code, w.Body.String())
	}
	ev := map[string]string{"A": "A1"}
	if w := do(t, s, "POST", "/v1/models/wide/browse", BrowseRequest{Evidence: ev}); w.Code != http.StatusBadRequest {
		t.Errorf("browse: status = %d: %s", w.Code, w.Body.String())
	}
	w := do(t, s, "POST", "/v1/models/wide/generate", GenerateRequest{Count: 10, Seed: seedPtr(1), Evidence: ev})
	if w.Code != http.StatusBadRequest {
		t.Errorf("evidence generate: status = %d: %s", w.Code, w.Body.String())
	}
	if w := do(t, s, "GET", "/v1/healthz", nil); w.Code != http.StatusOK {
		t.Errorf("healthz: status = %d", w.Code)
	}
}

func TestGenerateStreamsNDJSON(t *testing.T) {
	s, reg := newTestServer(t, Options{})
	m := testModel(t, 1)
	if _, err := reg.Put("web", m); err != nil {
		t.Fatal(err)
	}

	const count = 2000
	w := do(t, s, "POST", "/v1/models/web/generate", GenerateRequest{Count: count, Seed: seedPtr(7)})
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", w.Code, w.Body.String())
	}
	if ct := w.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("content type = %q", ct)
	}

	// The stream must reproduce exactly what the batch API returns for the
	// same seed.
	want, err := m.Generate(core.GenerateOptions{Count: count, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	sc := bufio.NewScanner(bytes.NewReader(w.Body.Bytes()))
	for sc.Scan() {
		var item GenerateItem
		if err := json.Unmarshal(sc.Bytes(), &item); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		if item.Addr == "" {
			t.Fatalf("line without addr: %q", sc.Text())
		}
		got = append(got, item.Addr)
	}
	if len(got) != len(want) {
		t.Fatalf("streamed %d candidates, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i].String() {
			t.Fatalf("candidate %d = %s, want %s", i, got[i], want[i])
		}
	}
}

func TestGeneratePrefixesMode(t *testing.T) {
	s, reg := newTestServer(t, Options{})
	m := testModel(t, 1)
	if _, err := reg.Put("web", m); err != nil {
		t.Fatal(err)
	}
	w := do(t, s, "POST", "/v1/models/web/generate", GenerateRequest{Count: 50, Seed: seedPtr(7), Prefixes: true})
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", w.Code, w.Body.String())
	}
	// The test network has only a handful of distinct /64s, so the stream
	// must match exactly what the batch API can produce.
	want, err := m.GeneratePrefixes(core.GenerateOptions{Count: 50, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(bytes.NewReader(w.Body.Bytes()))
	var got []string
	for sc.Scan() {
		var item GenerateItem
		if err := json.Unmarshal(sc.Bytes(), &item); err != nil {
			t.Fatal(err)
		}
		if !strings.HasSuffix(item.Prefix, "/64") {
			t.Fatalf("expected /64 prefix, got %q", item.Prefix)
		}
		got = append(got, item.Prefix)
	}
	if len(got) != len(want) {
		t.Fatalf("streamed %d prefixes, batch produced %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i].String() {
			t.Fatalf("prefix %d = %s, want %s", i, got[i], want[i])
		}
	}
}

// TestGenerateSeedlessStreamsDiffer is the seed-default regression test:
// two requests that omit the seed must receive DIFFERENT candidate
// streams (the old behaviour defaulted to seed 0, handing every seedless
// client the identical "random" candidates), and each response must echo
// the derived seed in X-Seed so the stream can be replayed.
func TestGenerateSeedlessStreamsDiffer(t *testing.T) {
	s, reg := newTestServer(t, Options{})
	m := testModel(t, 1)
	if _, err := reg.Put("web", m); err != nil {
		t.Fatal(err)
	}
	req := GenerateRequest{Count: 200} // no seed
	w1 := do(t, s, "POST", "/v1/models/web/generate", req)
	w2 := do(t, s, "POST", "/v1/models/web/generate", req)
	if w1.Code != http.StatusOK || w2.Code != http.StatusOK {
		t.Fatalf("status = %d, %d", w1.Code, w2.Code)
	}
	seed1 := w1.Header().Get("X-Seed")
	seed2 := w2.Header().Get("X-Seed")
	if seed1 == "" || seed2 == "" {
		t.Fatalf("missing X-Seed headers: %q, %q", seed1, seed2)
	}
	if seed1 == seed2 {
		t.Errorf("two seedless requests derived the same seed %s", seed1)
	}
	if bytes.Equal(w1.Body.Bytes(), w2.Body.Bytes()) {
		t.Error("two seedless requests received the identical candidate stream")
	}

	// Replaying the echoed seed reproduces the stream exactly.
	var echoed int64
	if _, err := fmt.Sscan(seed1, &echoed); err != nil {
		t.Fatalf("X-Seed %q is not an integer: %v", seed1, err)
	}
	w3 := do(t, s, "POST", "/v1/models/web/generate", GenerateRequest{Count: 200, Seed: seedPtr(echoed)})
	if w3.Code != http.StatusOK {
		t.Fatalf("replay status = %d", w3.Code)
	}
	if w3.Header().Get("X-Seed") != seed1 {
		t.Errorf("explicit seed not echoed: %q vs %q", w3.Header().Get("X-Seed"), seed1)
	}
	if !bytes.Equal(w3.Body.Bytes(), w1.Body.Bytes()) {
		t.Error("replaying the echoed seed did not reproduce the stream")
	}

	// An explicit zero seed is honored, not treated as absent.
	z1 := do(t, s, "POST", "/v1/models/web/generate", GenerateRequest{Count: 200, Seed: seedPtr(0)})
	z2 := do(t, s, "POST", "/v1/models/web/generate", GenerateRequest{Count: 200, Seed: seedPtr(0)})
	if z1.Header().Get("X-Seed") != "0" {
		t.Errorf("X-Seed = %q for explicit zero seed", z1.Header().Get("X-Seed"))
	}
	if !bytes.Equal(z1.Body.Bytes(), z2.Body.Bytes()) {
		t.Error("explicit zero seed is not deterministic")
	}
}

func TestGenerateErrors(t *testing.T) {
	s, reg := newTestServer(t, Options{MaxGenerateCount: 100})
	if _, err := reg.Put("web", testModel(t, 1)); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		path   string
		req    GenerateRequest
		status int
	}{
		{"zero count", "/v1/models/web/generate", GenerateRequest{Count: 0}, http.StatusBadRequest},
		{"over limit", "/v1/models/web/generate", GenerateRequest{Count: 101}, http.StatusBadRequest},
		{"missing model", "/v1/models/none/generate", GenerateRequest{Count: 10}, http.StatusNotFound},
		{"bad evidence", "/v1/models/web/generate", GenerateRequest{Count: 10, Evidence: map[string]string{"ZZ": "1"}}, http.StatusBadRequest},
		{"attempts factor over limit", "/v1/models/web/generate", GenerateRequest{Count: 10, MaxAttemptsFactor: MaxAttemptsFactorLimit + 1}, http.StatusBadRequest},
		{"negative attempts factor", "/v1/models/web/generate", GenerateRequest{Count: 10, MaxAttemptsFactor: -1}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		w := do(t, s, "POST", tc.path, tc.req)
		if w.Code != tc.status {
			t.Errorf("%s: status = %d, want %d (%s)", tc.name, w.Code, tc.status, w.Body.String())
		}
	}
}

// TestGenerateEndToEnd10k uploads a model over a real HTTP server, then
// streams >= 10k unique candidates, reading the body incrementally —
// the acceptance scenario for bounded-memory streaming.
func TestGenerateEndToEnd10k(t *testing.T) {
	s, _ := newTestServer(t, Options{})
	ts := httptest.NewServer(s)
	defer ts.Close()

	// Upload.
	m := testModel(t, 1)
	raw, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	var body bytes.Buffer
	if err := json.NewEncoder(&body).Encode(PutModelRequest{Model: raw}); err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest("PUT", ts.URL+"/v1/models/web", &body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload status = %d", resp.StatusCode)
	}

	// List.
	resp, err = http.Get(ts.URL + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	var list ListModelsResponse
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list.Models) != 1 || list.Models[0].Name != "web" {
		t.Fatalf("list = %+v", list.Models)
	}

	// Stream 10k candidates, consuming line by line off the wire.
	const count = 10_000
	genBody := strings.NewReader(fmt.Sprintf(`{"count": %d, "seed": 1}`, count))
	resp, err = http.Post(ts.URL+"/v1/models/web/generate", "application/json", genBody)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("generate status = %d", resp.StatusCode)
	}
	seen := make(map[string]bool, count)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var item GenerateItem
		if err := json.Unmarshal(sc.Bytes(), &item); err != nil {
			t.Fatalf("bad line: %v", err)
		}
		if seen[item.Addr] {
			t.Fatalf("duplicate candidate %s", item.Addr)
		}
		seen[item.Addr] = true
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(seen) < count {
		t.Fatalf("streamed %d unique candidates, want >= %d", len(seen), count)
	}
}

func TestDownloadRoundTrips(t *testing.T) {
	s, reg := newTestServer(t, Options{})
	m := testModel(t, 1)
	if _, err := reg.Put("web", m); err != nil {
		t.Fatal(err)
	}
	w := do(t, s, "GET", "/v1/models/web/model", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d", w.Code)
	}
	loaded, err := core.Load(bytes.NewReader(w.Body.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if loaded.TrainCount != m.TrainCount || len(loaded.Segments) != len(m.Segments) {
		t.Errorf("downloaded model differs: %d/%d segments, %d/%d train",
			len(loaded.Segments), len(m.Segments), loaded.TrainCount, m.TrainCount)
	}

	// A malformed version pin must be rejected, not silently serve latest.
	w = do(t, s, "GET", "/v1/models/web/model?version=abc", nil)
	if w.Code != http.StatusBadRequest {
		t.Errorf("bad version param: status = %d, want 400", w.Code)
	}
	w = do(t, s, "GET", "/v1/models/web/model?version=9", nil)
	if w.Code != http.StatusNotFound {
		t.Errorf("missing version param: status = %d, want 404", w.Code)
	}
}

func TestModelInfoAndDelete(t *testing.T) {
	s, reg := newTestServer(t, Options{})
	m := testModel(t, 1)
	if _, err := reg.Put("web", m); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Put("web", m); err != nil {
		t.Fatal(err)
	}
	w := do(t, s, "GET", "/v1/models/web", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d", w.Code)
	}
	var info ModelInfoResponse
	decode(t, w, &info)
	if info.Latest.Version != 2 || len(info.Versions) != 2 {
		t.Errorf("info = %+v", info)
	}

	w = do(t, s, "DELETE", "/v1/models/web", nil)
	if w.Code != http.StatusNoContent {
		t.Errorf("delete status = %d", w.Code)
	}
	w = do(t, s, "DELETE", "/v1/models/web", nil)
	if w.Code != http.StatusNotFound {
		t.Errorf("double delete status = %d", w.Code)
	}
	w = do(t, s, "GET", "/v1/models/web", nil)
	if w.Code != http.StatusNotFound {
		t.Errorf("info after delete status = %d", w.Code)
	}
}

// TestHealthzReportsMetrics: the per-route request and error counts and
// the registry size /healthz used to carry are on /metrics.
func TestHealthzReportsMetrics(t *testing.T) {
	s, reg := newTestServer(t, Options{})
	if _, err := reg.Put("web", testModel(t, 1)); err != nil {
		t.Fatal(err)
	}
	do(t, s, "GET", "/v1/models", nil)
	do(t, s, "POST", "/v1/models/web/browse", BrowseRequest{})
	do(t, s, "POST", "/v1/models/missing/browse", BrowseRequest{})

	body := scrape(t, s)
	if v := sample(t, body, "eip_registry_models"); v != 1 {
		t.Errorf("eip_registry_models = %v, want 1", v)
	}
	const browse = `{route="POST /v1/models/{name}/browse"}`
	reqs := sample(t, body, "eip_http_requests_total"+browse)
	errs := sample(t, body, "eip_http_errors_total"+browse)
	if reqs != 2 || errs != 1 {
		t.Errorf("browse route = %v requests / %v errors, want 2 / 1", reqs, errs)
	}
	const list = `{route="GET /v1/models"}`
	reqs = sample(t, body, "eip_http_requests_total"+list)
	errs = sample(t, body, "eip_http_errors_total"+list)
	if reqs != 1 || errs != 0 {
		t.Errorf("list route = %v requests / %v errors, want 1 / 0", reqs, errs)
	}
}

// TestHealthzShape: /healthz and /v1/healthz answer liveness only,
// exactly {"status":"ok","version":...}, on a fresh server and on a
// draining one.
func TestHealthzShape(t *testing.T) {
	s, _ := newTestServer(t, Options{})
	check := func(when string) {
		t.Helper()
		for _, path := range []string{"/healthz", "/v1/healthz"} {
			w := do(t, s, "GET", path, nil)
			if w.Code != http.StatusOK {
				t.Fatalf("%s %s: status = %d, want 200", when, path, w.Code)
			}
			raw := w.Body.String()
			var body map[string]json.RawMessage
			decode(t, w, &body)
			if len(body) != 2 {
				t.Errorf("%s %s: body %s, want exactly the keys status and version", when, path, strings.TrimSpace(raw))
			}
			var status, version string
			if err := json.Unmarshal(body["status"], &status); err != nil || status != "ok" {
				t.Errorf("%s %s: status = %s, want \"ok\"", when, path, body["status"])
			}
			if err := json.Unmarshal(body["version"], &version); err != nil || version == "" {
				t.Errorf("%s %s: version = %s, want a non-empty string", when, path, body["version"])
			}
		}
	}
	check("fresh")
	s.Drain()
	check("draining")
}

func TestBodySizeLimit(t *testing.T) {
	s, _ := newTestServer(t, Options{MaxBodyBytes: 64})
	big := strings.Repeat("x", 200)
	req := httptest.NewRequest("PUT", "/v1/models/web", strings.NewReader(`{"addresses": ["`+big+`"]}`))
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("status = %d, want 413", w.Code)
	}
}
