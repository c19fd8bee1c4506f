package client

import (
	"bytes"
	"context"
	"testing"

	"entropyip/internal/ip6"
)

// ndjsonLineCases are generate lines in every shape the decoder meets:
// the plain candidate lines the fast path takes, and batch, done, error,
// escaped, spaced and malformed lines that must fall through to
// encoding/json or fail the same way.
var ndjsonLineCases = []string{
	`{"addr":"2001:db8::1"}`,
	`{"addr":"20010db8000000000000000000000001"}`,
	`{"addr":"::ffff:192.0.2.1"}`,
	`{"prefix":"2001:db8:0:1::/64"}`,
	`{"stream":2,"addr":"2001:db8::1"}`,
	`{"stream":0,"prefix":"2001:db8:0:1::/64"}`,
	`{"stream":1,"done":true}`,
	`{"error":"model evicted","request_id":"r1"}`,
	`{"stream":3,"error":"generation failed"}`,
	`{"addr":"\u0032001:db8::1"}`,
	`{"addr":"2001:db8::\/1"}`,
	`{"prefix":"2001:db8::/64"}`,
	`{"addr": "2001:db8::1"}`,
	`{ "addr":"2001:db8::1" }`,
	`{"addr":"2001:db8::1","extra":7}`,
	`{"addr":"2001:db8::1","addr":"2001:db8::2"}`,
	`{"addr":"2001:db8::zz"}`,
	`{"addr":""}`,
	`{"addr":"}`,
	`{"addr":"2001:db8::1"`,
	`{"prefix":"2001:db8::/129"}`,
	`{"prefix":"2001:db8::"}`,
	`{"addr":"2001:db8::1 "}`,
	"{\"addr\":\"2001:db8::\x01\"}",
	"{\"addr\":\"2001:db8::\xff\"}",
	`{"addr":"2001:db8::1"}}`,
	`not json`,
	`{}`,
}

// checkLineAgrees fails unless decodeNDJSONLine and the encoding/json
// path give the same event and tag, or errors with the same message.
func checkLineAgrees(t *testing.T, line []byte, prefixes bool) {
	t.Helper()
	ev, tagged, err := decodeNDJSONLine(line, prefixes)
	wev, wtagged, werr := decodeJSONLine(line, prefixes)
	if (err == nil) != (werr == nil) || (err != nil && err.Error() != werr.Error()) {
		t.Fatalf("%q prefixes=%v: error %v, JSON path %v", line, prefixes, err, werr)
	}
	if err == nil && (ev != wev || tagged != wtagged) {
		t.Fatalf("%q prefixes=%v: event %+v tagged=%v, JSON path %+v tagged=%v",
			line, prefixes, ev, tagged, wev, wtagged)
	}
}

func TestDecodeNDJSONLineMatchesJSON(t *testing.T) {
	for _, line := range ndjsonLineCases {
		for _, prefixes := range []bool{false, true} {
			checkLineAgrees(t, []byte(line), prefixes)
		}
	}
	// The lines the fast path exists for must decode to candidates.
	for line, prefixes := range map[string]bool{
		`{"addr":"2001:db8::1"}`:         false,
		`{"prefix":"2001:db8:0:1::/64"}`: true,
	} {
		ev, tagged, err := decodeNDJSONLine([]byte(line), prefixes)
		if err != nil || tagged || ev.Kind != KindCandidate {
			t.Errorf("%q: event %+v tagged=%v err=%v, want an untagged candidate", line, ev, tagged, err)
		}
	}
}

func FuzzDecodeNDJSONLine(f *testing.F) {
	for _, line := range ndjsonLineCases {
		f.Add([]byte(line), false)
		f.Add([]byte(line), true)
	}
	f.Fuzz(func(t *testing.T, line []byte, prefixes bool) {
		checkLineAgrees(t, line, prefixes)
	})
}

// BenchmarkDecodeNDJSON1k decodes the body of a 1000-candidate
// single-stream NDJSON generate response.
func BenchmarkDecodeNDJSON1k(b *testing.B) {
	var body []byte
	for _, a := range testAddrs(1000, 1) {
		body = append(body, `{"addr":"`...)
		body = a.AppendString(body)
		body = append(body, `"}`+"\n"...)
	}
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var res GenerateResult
		n := 0
		err := decodeNDJSONStream(bytes.NewReader(body), false, &res, func(ev Event) bool {
			if ev.Kind == KindCandidate && ev.Addr != (ip6.Addr{}) {
				n++
			}
			return true
		})
		if err != nil || n != 1000 {
			b.Fatalf("decoded %d candidates: %v", n, err)
		}
	}
}

// BenchmarkGenerateLoopback is one 1000-candidate generate request from
// the real client to a real server over a loopback socket: request
// encoding, the server's handler, the socket and the client's decode.
// internal/serve's BenchmarkGenerateHTTP times the handler alone, writing
// into a discard writer.
func BenchmarkGenerateLoopback(b *testing.B) {
	c, _ := newServerURL(b)
	for _, enc := range []struct {
		name   string
		binary bool
	}{{"binary", true}, {"ndjson", false}} {
		b.Run(enc.name, func(b *testing.B) {
			opts := GenerateOptions{Count: 1000, Seed: seed(1), Binary: enc.binary}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := c.Generate(context.Background(), "web", opts, func(Event) bool { return true })
				if err != nil {
					b.Fatal(err)
				}
				if res.Candidates != 1000 {
					b.Fatalf("%d candidates, want 1000", res.Candidates)
				}
			}
		})
	}
}
