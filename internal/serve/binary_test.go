package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"entropyip/internal/ip6"
	"entropyip/internal/wire"
)

// doHeaders issues a request with extra headers (Accept, Content-Type)
// and an optional raw body.
func doHeaders(t *testing.T, s *Server, method, path string, body []byte, hdr map[string]string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	return w
}

// jsonBody marshals a request body for doHeaders.
func jsonBody(t *testing.T, v interface{}) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestNegotiateGenerateEncoding(t *testing.T) {
	cases := []struct {
		accept string
		enc    encoding
		reject bool
	}{
		{"", encNDJSON, false},
		{"*/*", encNDJSON, false},
		{"application/x-ndjson", encNDJSON, false},
		{"application/json", encNDJSON, false},
		{"application/*", encNDJSON, false},
		{wire.ContentType, encBinary, false},
		{"Application/X-Entropyip-Addrs", encBinary, false},
		{"application/x-ndjson, " + wire.ContentType, encBinary, false},
		{wire.ContentType + ";q=0.5, application/x-ndjson", encBinary, false},
		{"text/html, */*", encNDJSON, false},
		{"text/html", 0, true},
		{"application/xml;q=1.0", 0, true},
	}
	for _, tc := range cases {
		r := httptest.NewRequest("POST", "/v1/models/web/generate", nil)
		if tc.accept != "" {
			r.Header.Set("Accept", tc.accept)
		}
		enc, err := negotiateGenerateEncoding(r)
		if tc.reject {
			if err == nil {
				t.Errorf("Accept %q: expected rejection, got %v", tc.accept, enc)
			}
			continue
		}
		if err != nil || enc != tc.enc {
			t.Errorf("Accept %q: enc = %v, err = %v; want %v", tc.accept, enc, err, tc.enc)
		}
	}
}

func TestGenerateNotAcceptable(t *testing.T) {
	s, reg := newTestServer(t, Options{})
	if _, err := reg.Put("web", testModel(t, 1)); err != nil {
		t.Fatal(err)
	}
	w := doHeaders(t, s, "POST", "/v1/models/web/generate",
		jsonBody(t, GenerateRequest{Count: 5}), map[string]string{"Accept": "text/csv"})
	if w.Code != http.StatusNotAcceptable {
		t.Fatalf("status = %d, want 406 (%s)", w.Code, w.Body.String())
	}
	var er errorResponse
	decode(t, w, &er)
	if er.Error.Code != CodeNotAcceptable {
		t.Errorf("code = %q, want %q", er.Error.Code, CodeNotAcceptable)
	}
}

// ndjsonAddrs parses a single-stream NDJSON generate body into its
// address strings, failing on any error trailer.
func ndjsonAddrs(t *testing.T, body *bytes.Buffer, prefixes bool) []string {
	t.Helper()
	var out []string
	sc := bufio.NewScanner(bytes.NewReader(body.Bytes()))
	for sc.Scan() {
		var item GenerateItem
		if err := json.Unmarshal(sc.Bytes(), &item); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		if item.Error != "" {
			t.Fatalf("error trailer: %s", item.Error)
		}
		if prefixes {
			out = append(out, item.Prefix)
		} else {
			out = append(out, item.Addr)
		}
	}
	return out
}

// binaryAddrs decodes a binary generate body, returning per-stream
// address/prefix strings and per-stream seeds (Seed frames; stream 0's
// header seed when absent). Error frames fail the test.
func binaryAddrs(t *testing.T, body *bytes.Buffer) (wire.Header, map[int][]string, map[int]int64, map[int]bool) {
	t.Helper()
	rd, err := wire.NewReader(bytes.NewReader(body.Bytes()))
	if err != nil {
		t.Fatalf("reading binary header: %v", err)
	}
	hdr := rd.Header()
	byStream := map[int][]string{}
	seeds := map[int]int64{}
	ended := map[int]bool{}
	for {
		f, err := rd.Next()
		if err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			t.Fatalf("decoding frame: %v", err)
		}
		switch f.Kind {
		case wire.KindAddrs:
			for i := 0; i < f.Count; i++ {
				byStream[f.Stream] = append(byStream[f.Stream], f.Addr(i).String())
			}
		case wire.KindPrefixes:
			for i := 0; i < f.Count; i++ {
				byStream[f.Stream] = append(byStream[f.Stream], f.Prefix(i).String())
			}
		case wire.KindSeed:
			seeds[f.Stream] = f.Seed()
		case wire.KindEnd:
			ended[f.Stream] = true
		case wire.KindError:
			t.Fatalf("stream %d error frame: %s", f.Stream, f.Message())
		}
	}
	return hdr, byStream, seeds, ended
}

// TestGenerateBinaryMatchesNDJSON is the cross-encoding equivalence
// gate of PR 7: the same model, seed and options must yield the
// identical candidate sequence through NDJSON text and binary framing.
func TestGenerateBinaryMatchesNDJSON(t *testing.T) {
	s, reg := newTestServer(t, Options{})
	if _, err := reg.Put("web", testModel(t, 1)); err != nil {
		t.Fatal(err)
	}
	for _, prefixes := range []bool{false, true} {
		req := GenerateRequest{Count: 500, Seed: seedPtr(42), Prefixes: prefixes}
		wText := do(t, s, "POST", "/v1/models/web/generate", req)
		if wText.Code != http.StatusOK {
			t.Fatalf("ndjson status = %d: %s", wText.Code, wText.Body.String())
		}
		text := ndjsonAddrs(t, wText.Body, prefixes)

		wBin := doHeaders(t, s, "POST", "/v1/models/web/generate",
			jsonBody(t, req), map[string]string{"Accept": wire.ContentType})
		if wBin.Code != http.StatusOK {
			t.Fatalf("binary status = %d: %s", wBin.Code, wBin.Body.String())
		}
		if ct := wBin.Header().Get("Content-Type"); ct != wire.ContentType {
			t.Fatalf("binary Content-Type = %q", ct)
		}
		hdr, byStream, _, ended := binaryAddrs(t, wBin.Body)
		if hdr.Prefixes() != prefixes || hdr.Batch() || hdr.Streams != 1 || hdr.Seed != 42 {
			t.Fatalf("binary header = %+v (prefixes=%v)", hdr, prefixes)
		}
		if !ended[0] {
			t.Fatal("missing End frame")
		}
		bin := byStream[0]

		if len(text) == 0 || len(text) != len(bin) {
			t.Fatalf("prefixes=%v: %d text vs %d binary candidates", prefixes, len(text), len(bin))
		}
		for i := range text {
			if text[i] != bin[i] {
				t.Fatalf("prefixes=%v: candidate %d differs: %q (text) vs %q (binary)",
					prefixes, i, text[i], bin[i])
			}
		}
	}
}

// TestGenerateBinaryHeaders pins the response metadata headers on the
// binary encoding: X-Seed echo, X-Encoding, X-Model-Version.
func TestGenerateBinaryHeaders(t *testing.T) {
	s, reg := newTestServer(t, Options{})
	if _, err := reg.Put("web", testModel(t, 1)); err != nil {
		t.Fatal(err)
	}
	w := doHeaders(t, s, "POST", "/v1/models/web/generate",
		jsonBody(t, GenerateRequest{Count: 3, Seed: seedPtr(7)}),
		map[string]string{"Accept": wire.ContentType})
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", w.Code, w.Body.String())
	}
	if got := w.Header().Get("X-Seed"); got != "7" {
		t.Errorf("X-Seed = %q, want 7", got)
	}
	if got := w.Header().Get("X-Encoding"); got != "binary" {
		t.Errorf("X-Encoding = %q, want binary", got)
	}
	if got := w.Header().Get("X-Model-Version"); got != "1" {
		t.Errorf("X-Model-Version = %q, want 1", got)
	}
}

// TestGenerateBinaryEarlyErrorEnvelope checks a request that fails
// before any frame is flushed (unknown evidence segment) still answers
// with the JSON error envelope, not a broken binary body.
func TestGenerateBinaryEarlyErrorEnvelope(t *testing.T) {
	s, reg := newTestServer(t, Options{})
	if _, err := reg.Put("web", testModel(t, 1)); err != nil {
		t.Fatal(err)
	}
	w := doHeaders(t, s, "POST", "/v1/models/web/generate",
		jsonBody(t, GenerateRequest{Count: 3, Seed: seedPtr(1), Evidence: map[string]string{"NOPE": "X1"}}),
		map[string]string{"Accept": wire.ContentType})
	if w.Code != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400 (%s)", w.Code, w.Body.String())
	}
	var er errorResponse
	decode(t, w, &er)
	if er.Error.Code != CodeInvalidRequest || er.Error.Message == "" {
		t.Errorf("envelope = %+v", er.Error)
	}
}

// TestGenerateBatchBinary drives a 3-stream batch request over the
// binary encoding and checks each demultiplexed stream is byte-for-byte
// the single-stream response with the same seed, that Seed frames and
// the X-Seed header agree, and that every stream Ends.
func TestGenerateBatchBinary(t *testing.T) {
	s, reg := newTestServer(t, Options{})
	if _, err := reg.Put("web", testModel(t, 1)); err != nil {
		t.Fatal(err)
	}
	req := GenerateRequest{Streams: []GenerateStreamSpec{
		{Count: 40, Seed: seedPtr(101)},
		{Count: 40, Seed: seedPtr(202)},
		{Count: 40, Seed: seedPtr(303)},
	}}
	w := doHeaders(t, s, "POST", "/v1/models/web/generate",
		jsonBody(t, req), map[string]string{"Accept": wire.ContentType})
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", w.Code, w.Body.String())
	}
	if got := w.Header().Get("X-Seed"); got != "101,202,303" {
		t.Errorf("X-Seed = %q, want 101,202,303", got)
	}
	hdr, byStream, seeds, ended := binaryAddrs(t, w.Body)
	if !hdr.Batch() || hdr.Streams != 3 || hdr.Seed != 101 {
		t.Fatalf("header = %+v", hdr)
	}
	wantSeeds := []int64{101, 202, 303}
	for i, want := range wantSeeds {
		if seeds[i] != want {
			t.Errorf("stream %d seed frame = %d, want %d", i, seeds[i], want)
		}
		if !ended[i] {
			t.Errorf("stream %d missing End frame", i)
		}
		single := do(t, s, "POST", "/v1/models/web/generate",
			GenerateRequest{Count: 40, Seed: seedPtr(want)})
		if single.Code != http.StatusOK {
			t.Fatalf("single status = %d", single.Code)
		}
		ref := ndjsonAddrs(t, single.Body, false)
		if fmt.Sprint(byStream[i]) != fmt.Sprint(ref) {
			t.Errorf("stream %d differs from single-stream generation with seed %d", i, want)
		}
	}
}

// TestGenerateBatchNDJSON drives a batch request in NDJSON and checks
// the {"stream":i,...} line protocol: per-stream order matches the
// single-stream response, and each stream closes with a done line.
func TestGenerateBatchNDJSON(t *testing.T) {
	s, reg := newTestServer(t, Options{})
	if _, err := reg.Put("web", testModel(t, 1)); err != nil {
		t.Fatal(err)
	}
	req := GenerateRequest{Streams: []GenerateStreamSpec{
		{Count: 30, Seed: seedPtr(11)},
		{Count: 30, Seed: seedPtr(22)},
	}}
	w := do(t, s, "POST", "/v1/models/web/generate", req)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", w.Code, w.Body.String())
	}
	if got := w.Header().Get("X-Encoding"); got != "ndjson" {
		t.Errorf("X-Encoding = %q", got)
	}
	byStream := map[int][]string{}
	done := map[int]bool{}
	sc := bufio.NewScanner(bytes.NewReader(w.Body.Bytes()))
	for sc.Scan() {
		var item GenerateItem
		if err := json.Unmarshal(sc.Bytes(), &item); err != nil {
			t.Fatalf("bad line %q: %v", sc.Text(), err)
		}
		if item.Stream == nil {
			t.Fatalf("batch line missing stream index: %q", sc.Text())
		}
		switch {
		case item.Error != "":
			t.Fatalf("stream %d error: %s", *item.Stream, item.Error)
		case item.Done:
			done[*item.Stream] = true
		default:
			byStream[*item.Stream] = append(byStream[*item.Stream], item.Addr)
		}
	}
	for i, seed := range []int64{11, 22} {
		if !done[i] {
			t.Errorf("stream %d missing done line", i)
		}
		single := do(t, s, "POST", "/v1/models/web/generate",
			GenerateRequest{Count: 30, Seed: seedPtr(seed)})
		ref := ndjsonAddrs(t, single.Body, false)
		if fmt.Sprint(byStream[i]) != fmt.Sprint(ref) {
			t.Errorf("stream %d differs from single-stream generation with seed %d", i, seed)
		}
	}
}

// TestGenerateBatchValidation pins the batch-request validation errors.
func TestGenerateBatchValidation(t *testing.T) {
	s, reg := newTestServer(t, Options{MaxGenerateCount: 100})
	if _, err := reg.Put("web", testModel(t, 1)); err != nil {
		t.Fatal(err)
	}
	tooMany := make([]GenerateStreamSpec, MaxGenerateStreams+1)
	for i := range tooMany {
		tooMany[i] = GenerateStreamSpec{Count: 1}
	}
	cases := []struct {
		name string
		req  GenerateRequest
		frag string
	}{
		{"mixed top-level and streams",
			GenerateRequest{Count: 5, Streams: []GenerateStreamSpec{{Count: 5}}},
			"mutually exclusive"},
		{"zero stream count",
			GenerateRequest{Streams: []GenerateStreamSpec{{Count: 0}}},
			"streams[0].count"},
		{"total over limit",
			GenerateRequest{Streams: []GenerateStreamSpec{{Count: 60}, {Count: 60}}},
			"total count"},
		{"too many streams",
			GenerateRequest{Streams: tooMany},
			"streams exceed limit"},
	}
	for _, tc := range cases {
		w := do(t, s, "POST", "/v1/models/web/generate", tc.req)
		if w.Code != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", tc.name, w.Code)
			continue
		}
		var er errorResponse
		decode(t, w, &er)
		if !strings.Contains(er.Error.Message, tc.frag) {
			t.Errorf("%s: message %q missing %q", tc.name, er.Error.Message, tc.frag)
		}
	}
}

// buildObserveBody frames addrs as a binary /observe body.
func buildObserveBody(t *testing.T, addrs []ip6.Addr) []byte {
	t.Helper()
	var buf bytes.Buffer
	buf.Write(wire.AppendHeader(nil, wire.Header{Streams: 1}))
	ww := wire.NewWriter(&buf, 0, false, 0)
	for _, a := range addrs {
		if err := ww.AddAddr(a); err != nil {
			t.Fatal(err)
		}
	}
	if err := ww.End(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestObserveBinary posts a framed binary body and checks it lands in
// the model's window exactly like the text path.
func TestObserveBinary(t *testing.T) {
	s, reg := newTestServer(t, Options{})
	if _, err := reg.Put("web", testModel(t, 1)); err != nil {
		t.Fatal(err)
	}
	addrs := testAddrs(5000, 3)
	w := doHeaders(t, s, "POST", "/v1/models/web/observe",
		buildObserveBody(t, addrs), map[string]string{"Content-Type": wire.ContentType})
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", w.Code, w.Body.String())
	}
	if got := w.Header().Get("X-Encoding"); got != "binary" {
		t.Errorf("X-Encoding = %q", got)
	}
	var resp ObserveResponse
	decode(t, w, &resp)
	if resp.Accepted != len(addrs) {
		t.Errorf("accepted = %d, want %d", resp.Accepted, len(addrs))
	}
	if resp.Invalid != 0 {
		t.Errorf("invalid = %d on a binary body", resp.Invalid)
	}
}

// TestObserveBinaryRejects pins the 400s of the binary observe path:
// text mislabeled as binary, prefix streams, and error frames.
func TestObserveBinaryRejects(t *testing.T) {
	s, reg := newTestServer(t, Options{})
	if _, err := reg.Put("web", testModel(t, 1)); err != nil {
		t.Fatal(err)
	}
	prefixHdr := wire.AppendHeader(nil, wire.Header{Flags: wire.FlagPrefixes, Streams: 1})
	var errBody bytes.Buffer
	errBody.Write(wire.AppendHeader(nil, wire.Header{Streams: 1}))
	if err := wire.NewWriter(&errBody, 0, false, 0).Error("boom"); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		body []byte
		frag string
	}{
		{"ndjson mislabeled", []byte("{\"addr\":\"2001:db8::1\"}\n"), "bad magic"},
		{"prefix stream", prefixHdr, "prefix streams"},
		{"error frame", errBody.Bytes(), "unexpected frame kind"},
		{"truncated frame", buildObserveBody(t, testAddrs(10, 1))[:20], "malformed frame"},
	}
	for _, tc := range cases {
		w := doHeaders(t, s, "POST", "/v1/models/web/observe",
			tc.body, map[string]string{"Content-Type": wire.ContentType})
		if w.Code != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400 (%s)", tc.name, w.Code, w.Body.String())
			continue
		}
		var er errorResponse
		decode(t, w, &er)
		if !strings.Contains(er.Error.Message, tc.frag) {
			t.Errorf("%s: message %q missing %q", tc.name, er.Error.Message, tc.frag)
		}
	}
}

// TestObserveBinaryTooLarge checks the body cap maps to 413 on the
// binary path too.
func TestObserveBinaryTooLarge(t *testing.T) {
	s, reg := newTestServer(t, Options{MaxBodyBytes: 256})
	if _, err := reg.Put("web", testModel(t, 1)); err != nil {
		t.Fatal(err)
	}
	w := doHeaders(t, s, "POST", "/v1/models/web/observe",
		buildObserveBody(t, testAddrs(4096, 1)), map[string]string{"Content-Type": wire.ContentType})
	if w.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413 (%s)", w.Code, w.Body.String())
	}
	var er errorResponse
	decode(t, w, &er)
	if er.Error.Code != CodePayloadTooLarge {
		t.Errorf("code = %q, want %q", er.Error.Code, CodePayloadTooLarge)
	}
}

// TestEncodingCounters checks the per-encoding request counters appear
// in the exposition with the route/encoding labels.
func TestEncodingCounters(t *testing.T) {
	s, reg := newTestServer(t, Options{})
	if _, err := reg.Put("web", testModel(t, 1)); err != nil {
		t.Fatal(err)
	}
	if w := do(t, s, "POST", "/v1/models/web/generate", GenerateRequest{Count: 2, Seed: seedPtr(1)}); w.Code != 200 {
		t.Fatalf("generate ndjson: %d", w.Code)
	}
	if w := doHeaders(t, s, "POST", "/v1/models/web/generate",
		jsonBody(t, GenerateRequest{Count: 2, Seed: seedPtr(1)}),
		map[string]string{"Accept": wire.ContentType}); w.Code != 200 {
		t.Fatalf("generate binary: %d", w.Code)
	}
	if w := doHeaders(t, s, "POST", "/v1/models/web/observe",
		buildObserveBody(t, testAddrs(4, 1)), map[string]string{"Content-Type": wire.ContentType}); w.Code != 200 {
		t.Fatalf("observe binary: %d", w.Code)
	}
	body := scrape(t, s)
	for _, want := range []string{
		`eip_encoding_requests_total{route="generate",encoding="ndjson"} 1`,
		`eip_encoding_requests_total{route="generate",encoding="binary"} 1`,
		`eip_encoding_requests_total{route="observe",encoding="binary"} 1`,
		`eip_encoding_requests_total{route="observe",encoding="ndjson"} 0`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}
