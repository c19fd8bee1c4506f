package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"

	"entropyip/internal/core"
	"entropyip/internal/ip6"
)

// escapeCorpus exercises every branch of encoding/json's string escaper,
// which the error trailer relies on:
// plain ASCII, the named escapes, generic control characters, the HTML
// set, multi-byte UTF-8, the JS line separators, and invalid UTF-8.
var escapeCorpus = []string{
	"",
	"plain ascii",
	"2001:db8::1", "::ffff:192.0.2.1/64",
	`quote " and backslash \`,
	"newline\n tab\t carriage\r",
	"control \x00\x01\x1f\x7f",
	"html <script>&amp;</script>",
	"unicode é 漢字 🎉",
	"line sep \u2028 and \u2029 end",
	"invalid \xff\xfe utf8",
	"truncated \xe2\x82 rune",
	"mixed <\n \xffé>",
}

// TestGenerateNDJSONLinesMatchEncodingJSON pins each stream line shape
// against the exact bytes the old json.Encoder produced for GenerateItem.
func TestGenerateNDJSONLinesMatchEncodingJSON(t *testing.T) {
	oldLine := func(item GenerateItem) []byte {
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(item); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for _, a := range testAddrs(200, 7) {
		got := append([]byte(`{"addr":"`), a.AppendString(nil)...)
		got = append(got, '"', '}', '\n')
		if want := oldLine(GenerateItem{Addr: a.String()}); !bytes.Equal(got, want) {
			t.Fatalf("addr line = %q, old encoder = %q", got, want)
		}
		p := ip6.Prefix64(a)
		got = append([]byte(`{"prefix":"`), p.AppendString(nil)...)
		got = append(got, '"', '}', '\n')
		if want := oldLine(GenerateItem{Prefix: p.String()}); !bytes.Equal(got, want) {
			t.Fatalf("prefix line = %q, old encoder = %q", got, want)
		}
	}
	for _, msg := range escapeCorpus {
		got := appendErrorLine(nil, msg, "")
		if want := oldLine(GenerateItem{Error: msg}); !bytes.Equal(got, want) {
			t.Fatalf("error line for %q = %q, old encoder = %q", msg, got, want)
		}
		got = appendErrorLine(nil, msg, "4bf92f3577b34da6a3ce929d0e0e4736")
		want := oldLine(GenerateItem{Error: msg, TraceID: "4bf92f3577b34da6a3ce929d0e0e4736"})
		if !bytes.Equal(got, want) {
			t.Fatalf("traced error line for %q = %q, old encoder = %q", msg, got, want)
		}
	}
}

// TestGenerateStreamByteIdentity replays fixed-seed generate requests
// through the live handler and checks the body equals the stream the old
// per-line json.Encoder implementation produced for the same draws.
func TestGenerateStreamByteIdentity(t *testing.T) {
	s, reg := newTestServer(t, Options{})
	m := testModel(t, 3)
	if _, err := reg.Put("id", m); err != nil {
		t.Fatal(err)
	}
	for _, prefixes := range []bool{false, true} {
		w := do(t, s, "POST", "/v1/models/id/generate", GenerateRequest{
			Count: 500, Seed: seedPtr(11), Prefixes: prefixes,
		})
		if w.Code != http.StatusOK {
			t.Fatalf("status = %d body %s", w.Code, w.Body.String())
		}

		// The old implementation: same generation options, but each line
		// through encoding/json.
		var want bytes.Buffer
		enc := json.NewEncoder(&want)
		opts := core.GenerateOptions{Count: 500, Seed: 11}
		var err error
		if prefixes {
			err = m.GeneratePrefixesStream(opts, func(p ip6.Prefix) bool {
				if e := enc.Encode(GenerateItem{Prefix: p.String()}); e != nil {
					t.Fatal(e)
				}
				return true
			})
		} else {
			err = m.GenerateStream(opts, func(a ip6.Addr) bool {
				if e := enc.Encode(GenerateItem{Addr: a.String()}); e != nil {
					t.Fatal(e)
				}
				return true
			})
		}
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(w.Body.Bytes(), want.Bytes()) {
			got, exp := w.Body.String(), want.String()
			for i := 0; i < len(got) && i < len(exp); i++ {
				if got[i] != exp[i] {
					t.Fatalf("prefixes=%v: stream diverges at byte %d: got %q, old path %q",
						prefixes, i, truncAt(got, i), truncAt(exp, i))
				}
			}
			t.Fatalf("prefixes=%v: stream length %d != old path %d", prefixes, len(got), len(exp))
		}
	}
}

// truncAt shows a short window of s around byte i for failure messages.
func truncAt(s string, i int) string {
	lo, hi := i-20, i+20
	if lo < 0 {
		lo = 0
	}
	if hi > len(s) {
		hi = len(s)
	}
	return s[lo:hi]
}
