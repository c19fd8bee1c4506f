package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"testing"

	"entropyip/internal/wire"
)

// appendErrorLine is the untagged error trailer of a single-stream NDJSON
// response, the line shape TestGenerateNDJSONLinesMatchEncodingJSON pins
// against encoding/json.
func appendErrorLine(dst []byte, msg, traceID string) []byte {
	return appendErrorFields(append(dst, '{'), msg, traceID)
}

// streamResult is one demultiplexed stream of a generate response.
type streamResult struct {
	cands   []string
	end     bool   // done line or End frame
	err     string // in-band error line or Error frame
	traceID string // NDJSON error lines only
}

func demuxNDJSON(t *testing.T, body []byte) map[int]*streamResult {
	t.Helper()
	out := map[int]*streamResult{}
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		var item GenerateItem
		if err := json.Unmarshal(sc.Bytes(), &item); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		if item.Stream == nil {
			t.Fatalf("batch line missing stream index: %q", sc.Text())
		}
		st := out[*item.Stream]
		if st == nil {
			st = &streamResult{}
			out[*item.Stream] = st
		}
		switch {
		case item.Error != "":
			st.err, st.traceID = item.Error, item.TraceID
		case item.Done:
			st.end = true
		default:
			st.cands = append(st.cands, item.Addr)
		}
	}
	return out
}

func demuxBinary(t *testing.T, body []byte) map[int]*streamResult {
	t.Helper()
	rd, err := wire.NewReader(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("reading binary header: %v", err)
	}
	out := map[int]*streamResult{}
	for {
		f, err := rd.Next()
		if errors.Is(err, io.EOF) {
			return out
		}
		if err != nil {
			t.Fatalf("decoding frame: %v", err)
		}
		st := out[f.Stream]
		if st == nil {
			st = &streamResult{}
			out[f.Stream] = st
		}
		switch f.Kind {
		case wire.KindAddrs:
			for i := 0; i < f.Count; i++ {
				st.cands = append(st.cands, f.Addr(i).String())
			}
		case wire.KindEnd:
			st.end = true
		case wire.KindError:
			st.err = f.Message()
		}
	}
}

// TestGeneratePerStreamErrors pins the one error rule of the generate
// loop in both encodings: a single stream that fails before its first
// candidate gets the 400 error envelope, while a failing stream inside a
// batch ends in-band and leaves its sibling streams untouched.
func TestGeneratePerStreamErrors(t *testing.T) {
	s, reg := newTestServer(t, Options{})
	if _, err := reg.Put("web", testModel(t, 1)); err != nil {
		t.Fatal(err)
	}
	bad := map[string]string{"NOPE": "X1"}
	single := do(t, s, "POST", "/v1/models/web/generate", GenerateRequest{Count: 40, Seed: seedPtr(7)})
	if single.Code != http.StatusOK {
		t.Fatalf("reference status = %d: %s", single.Code, single.Body.String())
	}
	ref := ndjsonAddrs(t, single.Body, false)

	cases := []struct {
		name   string
		accept string
		demux  func(*testing.T, []byte) map[int]*streamResult
	}{
		{"ndjson", "application/x-ndjson", demuxNDJSON},
		{"binary", wire.ContentType, demuxBinary},
	}
	for _, tc := range cases {
		hdr := map[string]string{"Accept": tc.accept}
		t.Run(tc.name+"/single", func(t *testing.T) {
			w := doHeaders(t, s, "POST", "/v1/models/web/generate",
				jsonBody(t, GenerateRequest{Count: 40, Seed: seedPtr(7), Evidence: bad}), hdr)
			if w.Code != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400 (%s)", w.Code, w.Body.String())
			}
			var er errorResponse
			decode(t, w, &er)
			if er.Error.Code != CodeInvalidRequest || er.Error.Message == "" {
				t.Errorf("envelope = %+v", er.Error)
			}
		})
		t.Run(tc.name+"/batch", func(t *testing.T) {
			w := doHeaders(t, s, "POST", "/v1/models/web/generate",
				jsonBody(t, GenerateRequest{Streams: []GenerateStreamSpec{
					{Count: 40, Seed: seedPtr(7)},
					{Count: 40, Seed: seedPtr(8), Evidence: bad},
				}}), hdr)
			if w.Code != http.StatusOK {
				t.Fatalf("status = %d, want 200 (%s)", w.Code, w.Body.String())
			}
			got := tc.demux(t, w.Body.Bytes())
			good, failed := got[0], got[1]
			if good == nil || !good.end || good.err != "" {
				t.Fatalf("good stream = %+v, want a clean end", good)
			}
			if fmt.Sprint(good.cands) != fmt.Sprint(ref) {
				t.Errorf("good stream differs from single-stream generation with seed 7")
			}
			if failed == nil || failed.err == "" || failed.end || len(failed.cands) != 0 {
				t.Fatalf("failed stream = %+v, want only an in-band error", failed)
			}
			if tc.name == "ndjson" && failed.traceID == "" {
				t.Error("error line is missing the trace_id handle")
			}
		})
	}
}

// TestGenerateIgnoresUnorderedField pins API compatibility for the
// removed "unordered" and "workers" request fields: generation has one
// deterministic order and always runs on all cores, and a request that
// still carries either field, with any value, is accepted and answered
// like the same request without it, in both encodings. Single-stream
// bodies must be byte-identical. A batch body interleaves its streams in
// scheduling order even between two identical requests, so batch
// responses are compared stream by stream.
func TestGenerateIgnoresUnorderedField(t *testing.T) {
	s, reg := newTestServer(t, Options{})
	if _, err := reg.Put("web", testModel(t, 1)); err != nil {
		t.Fatal(err)
	}
	const (
		// A count past the parallel cutoff also exercises the parallel
		// execution.
		single = `{"count":1500,"seed":5%s}`
		batch  = `{"streams":[{"count":40,"seed":101},{"count":40,"seed":202}]%s}`
	)
	fields := []string{`,"unordered":true`, `,"workers":4`, `,"workers":-1`, `,"workers":1000`}
	encodings := []struct {
		accept string
		demux  func(*testing.T, []byte) map[int]*streamResult
	}{
		{"application/x-ndjson", demuxNDJSON},
		{wire.ContentType, demuxBinary},
	}
	for _, body := range []string{single, batch} {
		for _, enc := range encodings {
			// A fixed traceparent gives both binary bodies the same
			// Trace frame.
			hdr := map[string]string{"Accept": enc.accept, "Traceparent": sampledTraceparent}
			plain := []byte(fmt.Sprintf(body, ""))
			want := doHeaders(t, s, "POST", "/v1/models/web/generate", plain, hdr)
			if want.Code != http.StatusOK || want.Body.Len() == 0 {
				t.Fatalf("%s %s: status %d, %d body bytes: %s",
					enc.accept, plain, want.Code, want.Body.Len(), want.Body.String())
			}
			var wantStreams map[int]*streamResult
			if body == batch {
				if wantStreams = enc.demux(t, want.Body.Bytes()); len(wantStreams) != 2 {
					t.Fatalf("%s %s: %d streams, want 2", enc.accept, plain, len(wantStreams))
				}
			}
			for _, field := range fields {
				with := []byte(fmt.Sprintf(body, field))
				got := doHeaders(t, s, "POST", "/v1/models/web/generate", with, hdr)
				if got.Code != http.StatusOK {
					t.Fatalf("%s %s: status %d: %s", enc.accept, with, got.Code, got.Body.String())
				}
				if body == single {
					if !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
						t.Errorf("%s %s: body differs from the request without the field", enc.accept, with)
					}
					continue
				}
				gotStreams := enc.demux(t, got.Body.Bytes())
				for i, w := range wantStreams {
					g := gotStreams[i]
					if g == nil || !g.end || fmt.Sprint(g.cands) != fmt.Sprint(w.cands) {
						t.Errorf("%s %s: stream %d differs from the request without the field", enc.accept, with, i)
					}
				}
			}
		}
	}
}
