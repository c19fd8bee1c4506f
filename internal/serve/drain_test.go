package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"entropyip/internal/wire"
)

// These tests pin the graceful-shutdown drain contract: once Drain is
// called, an in-flight generate stream stops after its current candidate
// and the client receives an explicit in-band signal — an NDJSON error
// line, or a binary Error frame — distinguishable from a legitimately
// short stream (exhausted model support ends with no error marker).

// lastNDJSONLine returns the final non-empty line of a body.
func lastNDJSONLine(t *testing.T, body string) GenerateItem {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(body), "\n")
	if len(lines) == 0 || lines[len(lines)-1] == "" {
		t.Fatalf("no NDJSON lines in body %q", body)
	}
	var item GenerateItem
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &item); err != nil {
		t.Fatalf("decoding last line %q: %v", lines[len(lines)-1], err)
	}
	return item
}

func TestDrainEmitsNDJSONErrorLine(t *testing.T) {
	s, reg := newTestServer(t, Options{})
	if _, err := reg.Put("web", testModel(t, 1)); err != nil {
		t.Fatal(err)
	}
	s.Drain()
	w := do(t, s, "POST", "/v1/models/web/generate", GenerateRequest{Count: 50000, Seed: seedPtr(7)})
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", w.Code, w.Body.String())
	}
	item := lastNDJSONLine(t, w.Body.String())
	if item.Error != drainMessage {
		t.Fatalf("last line = %+v, want error %q", item, drainMessage)
	}
	if item.TraceID == "" {
		t.Error("drain trailer line is missing the trace_id handle")
	}
}

func TestDrainEmitsBatchNDJSONErrorLines(t *testing.T) {
	s, reg := newTestServer(t, Options{})
	if _, err := reg.Put("web", testModel(t, 1)); err != nil {
		t.Fatal(err)
	}
	s.Drain()
	w := do(t, s, "POST", "/v1/models/web/generate", GenerateRequest{Streams: []GenerateStreamSpec{
		{Count: 50000, Seed: seedPtr(1)},
		{Count: 50000, Seed: seedPtr(2)},
	}})
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", w.Code, w.Body.String())
	}
	// Every stream must close with the drain error line, none with done.
	got := map[int]string{}
	for _, line := range strings.Split(strings.TrimSpace(w.Body.String()), "\n") {
		var item GenerateItem
		if err := json.Unmarshal([]byte(line), &item); err != nil {
			t.Fatalf("decoding line %q: %v", line, err)
		}
		if item.Done {
			t.Fatalf("stream %v reported done on a drained server", item.Stream)
		}
		if item.Error != "" && item.Stream != nil {
			got[*item.Stream] = item.Error
			if item.TraceID == "" {
				t.Errorf("stream %d drain trailer line is missing the trace_id handle", *item.Stream)
			}
		}
	}
	for i := 0; i < 2; i++ {
		if got[i] != drainMessage {
			t.Errorf("stream %d final error = %q, want %q", i, got[i], drainMessage)
		}
	}
}

func TestDrainEmitsBinaryErrorFrame(t *testing.T) {
	s, reg := newTestServer(t, Options{})
	if _, err := reg.Put("web", testModel(t, 1)); err != nil {
		t.Fatal(err)
	}
	s.Drain()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(GenerateRequest{Count: 50000, Seed: seedPtr(7)}); err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest("POST", "/v1/models/web/generate", &buf)
	req.Header.Set("Accept", wire.ContentType)
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", w.Code, w.Body.String())
	}
	rd, err := wire.NewReader(bytes.NewReader(w.Body.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var sawError bool
	for {
		f, err := rd.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		switch f.Kind {
		case wire.KindEnd:
			t.Fatal("drained stream sent a clean End frame, want Error")
		case wire.KindError:
			sawError = true
			if f.Message() != drainMessage {
				t.Fatalf("Error frame message = %q, want %q", f.Message(), drainMessage)
			}
		}
	}
	if !sawError {
		t.Fatal("no Error frame in drained binary stream")
	}
}

// TestDrainCutsStreamMidFlight exercises the real mid-stream shape over
// a live connection: the client reads some candidates, Drain fires, and
// the stream must terminate promptly with the in-band error line.
func TestDrainCutsStreamMidFlight(t *testing.T) {
	s, reg := newTestServer(t, Options{})
	if _, err := reg.Put("web", testModel(t, 1)); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()

	body := `{"count": 10000000, "seed": 7}`
	resp, err := http.Post(ts.URL+"/v1/models/web/generate", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	var lines []string
	for sc.Scan() {
		lines = append(lines, sc.Text())
		if len(lines) == 3 {
			s.Drain() // mid-stream: candidates are already on the wire
		}
		if len(lines) > 5_000_000 {
			t.Fatal("stream did not stop after Drain")
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("reading drained stream: %v", err)
	}
	if len(lines) < 3 {
		t.Fatalf("only %d lines before EOF; expected at least the pre-drain reads", len(lines))
	}
	var last GenerateItem
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("decoding final line %q: %v", lines[len(lines)-1], err)
	}
	if last.Error != drainMessage {
		t.Fatalf("final line = %+v, want the %q trailer", last, drainMessage)
	}
}

// TestDrainIsIdempotentAndScopedToStreams: Drain may be called twice,
// and non-streaming routes keep answering normally afterwards (shutdown
// drains connections via http.Server; the handler itself stays up).
func TestDrainIsIdempotentAndScopedToStreams(t *testing.T) {
	s, reg := newTestServer(t, Options{})
	if _, err := reg.Put("web", testModel(t, 1)); err != nil {
		t.Fatal(err)
	}
	s.Drain()
	s.Drain()
	if w := do(t, s, "GET", "/healthz", nil); w.Code != http.StatusOK {
		t.Fatalf("healthz on draining server = %d", w.Code)
	}
	if w := do(t, s, "GET", "/v1/models", nil); w.Code != http.StatusOK {
		t.Fatalf("list on draining server = %d", w.Code)
	}
}
