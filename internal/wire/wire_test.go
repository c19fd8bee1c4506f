package wire

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"strings"
	"testing"

	"entropyip/internal/ip6"
)

func testAddrs(n int, seed int64) []ip6.Addr {
	rng := rand.New(rand.NewSource(seed))
	out := make([]ip6.Addr, n)
	for i := range out {
		out[i] = ip6.AddrFromUint64s(rng.Uint64(), rng.Uint64())
	}
	return out
}

func TestHeaderRoundTrip(t *testing.T) {
	cases := []Header{
		{Flags: 0, Streams: 1, Seed: 0},
		{Flags: FlagPrefixes, Streams: 1, Seed: -1},
		{Flags: FlagBatch, Streams: 256, Seed: 1<<63 - 1},
		{Flags: FlagBatch | FlagPrefixes, Streams: 7, Seed: -1 << 63},
	}
	for _, h := range cases {
		b := AppendHeader(nil, h)
		if len(b) != HeaderSize {
			t.Fatalf("header length = %d, want %d", len(b), HeaderSize)
		}
		got, err := ParseHeader(b)
		if err != nil {
			t.Fatalf("ParseHeader(%+v): %v", h, err)
		}
		if got != h {
			t.Errorf("round trip = %+v, want %+v", got, h)
		}
	}
}

func TestParseHeaderRejects(t *testing.T) {
	good := AppendHeader(nil, Header{Streams: 1, Seed: 42})
	mut := func(i int, v byte) []byte {
		b := append([]byte(nil), good...)
		b[i] = v
		return b
	}
	cases := []struct {
		name string
		b    []byte
		err  error
	}{
		{"short", good[:8], ErrBadMagic},
		{"magic", mut(0, 'X'), ErrBadMagic},
		{"version", mut(4, 9), ErrBadVersion},
		{"flags", mut(5, 0x80), ErrBadFlags},
		{"zero streams", mut(7, 0), ErrBadStreams},
		{"multi without batch", mut(7, 2), ErrBadStreams},
	}
	for _, tc := range cases {
		if _, err := ParseHeader(tc.b); !errors.Is(err, tc.err) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.err)
		}
	}
	// Over-limit stream count with the batch flag set.
	b := AppendHeader(nil, Header{Flags: FlagBatch, Streams: 1, Seed: 0})
	b[6], b[7] = 0x01, 0x01 // 257
	if _, err := ParseHeader(b); !errors.Is(err, ErrBadStreams) {
		t.Errorf("257 streams: err = %v, want ErrBadStreams", err)
	}
}

// TestWriterReaderRoundTrip drives addresses and prefixes through a
// Writer and back through a Reader, across frame boundaries.
func TestWriterReaderRoundTrip(t *testing.T) {
	addrs := testAddrs(10_000, 1)
	var body bytes.Buffer
	body.Write(AppendHeader(nil, Header{Streams: 1, Seed: 99}))
	w := NewWriter(&body, 0, false, 0)
	for _, a := range addrs {
		if err := w.AddAddr(a); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.End(); err != nil {
		t.Fatal(err)
	}

	r, err := NewReader(bytes.NewReader(body.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if h := r.Header(); h.Seed != 99 || h.Streams != 1 || h.Prefixes() {
		t.Fatalf("header = %+v", h)
	}
	var got []ip6.Addr
	ended := false
	for {
		f, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		switch f.Kind {
		case KindAddrs:
			if f.Count > MaxFrameRecords {
				t.Fatalf("frame count %d over limit", f.Count)
			}
			for i := 0; i < f.Count; i++ {
				got = append(got, f.Addr(i))
			}
		case KindEnd:
			ended = true
		default:
			t.Fatalf("unexpected frame kind 0x%02x", f.Kind)
		}
	}
	if !ended {
		t.Error("no End frame")
	}
	if len(got) != len(addrs) {
		t.Fatalf("decoded %d addrs, want %d", len(got), len(addrs))
	}
	for i := range addrs {
		if got[i] != addrs[i] {
			t.Fatalf("addr %d = %s, want %s", i, got[i], addrs[i])
		}
	}
}

func TestWriterReaderPrefixes(t *testing.T) {
	want := []ip6.Prefix{
		ip6.PrefixFrom(ip6.MustParseAddr("2001:db8::"), 32),
		ip6.PrefixFrom(ip6.MustParseAddr("2001:db8:1:2::"), 64),
		ip6.PrefixFrom(ip6.MustParseAddr("::"), 0),
		ip6.PrefixFrom(ip6.MustParseAddr("ff::1"), 128),
	}
	var body bytes.Buffer
	body.Write(AppendHeader(nil, Header{Flags: FlagPrefixes, Streams: 1}))
	w := NewWriter(&body, 0, true, 2) // 2 records per frame: forces several frames
	for _, p := range want {
		if err := w.AddPrefix(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.End(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(bytes.NewReader(body.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !r.Header().Prefixes() {
		t.Fatal("prefix flag lost")
	}
	var got []ip6.Prefix
	for {
		f, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if f.Kind == KindPrefixes {
			for i := 0; i < f.Count; i++ {
				got = append(got, f.Prefix(i))
			}
		}
	}
	if len(got) != len(want) {
		t.Fatalf("decoded %d prefixes, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("prefix %d = %s, want %s", i, got[i], want[i])
		}
	}
}

// TestBatchInterleaving checks that frames of several streams written
// through one shared sink demultiplex back into the per-stream record
// sequences, with Seed/End bookkeeping intact.
func TestBatchInterleaving(t *testing.T) {
	const streams = 3
	perStream := [][]ip6.Addr{testAddrs(100, 1), testAddrs(7, 2), testAddrs(301, 3)}
	seeds := []int64{11, -22, 33}

	var body bytes.Buffer
	body.Write(AppendHeader(nil, Header{Flags: FlagBatch, Streams: streams, Seed: seeds[0]}))
	ws := make([]*Writer, streams)
	for i := range ws {
		ws[i] = NewWriter(&body, i, false, 16)
		if err := ws[i].Seed(seeds[i]); err != nil {
			t.Fatal(err)
		}
	}
	// Round-robin the streams so frames genuinely interleave.
	idx := [streams]int{}
	for done := 0; done < streams; {
		done = 0
		for s := 0; s < streams; s++ {
			if idx[s] >= len(perStream[s]) {
				done++
				continue
			}
			end := idx[s] + 10
			if end > len(perStream[s]) {
				end = len(perStream[s])
			}
			for _, a := range perStream[s][idx[s]:end] {
				if err := ws[s].AddAddr(a); err != nil {
					t.Fatal(err)
				}
			}
			idx[s] = end
		}
	}
	for _, w := range ws {
		if err := w.End(); err != nil {
			t.Fatal(err)
		}
	}

	r, err := NewReader(bytes.NewReader(body.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if h := r.Header(); !h.Batch() || h.Streams != streams {
		t.Fatalf("header = %+v", h)
	}
	got := make([][]ip6.Addr, streams)
	gotSeeds := make([]int64, streams)
	ends := 0
	for {
		f, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		switch f.Kind {
		case KindAddrs:
			for i := 0; i < f.Count; i++ {
				got[f.Stream] = append(got[f.Stream], f.Addr(i))
			}
		case KindSeed:
			gotSeeds[f.Stream] = f.Seed()
		case KindEnd:
			ends++
		}
	}
	if ends != streams {
		t.Errorf("got %d End frames, want %d", ends, streams)
	}
	for s := 0; s < streams; s++ {
		if gotSeeds[s] != seeds[s] {
			t.Errorf("stream %d seed = %d, want %d", s, gotSeeds[s], seeds[s])
		}
		if len(got[s]) != len(perStream[s]) {
			t.Fatalf("stream %d: %d addrs, want %d", s, len(got[s]), len(perStream[s]))
		}
		for i := range got[s] {
			if got[s][i] != perStream[s][i] {
				t.Fatalf("stream %d addr %d mismatch", s, i)
			}
		}
	}
}

func TestErrorFrame(t *testing.T) {
	var body bytes.Buffer
	body.Write(AppendHeader(nil, Header{Streams: 1}))
	w := NewWriter(&body, 0, false, 0)
	if err := w.AddAddr(ip6.Addr{}); err != nil {
		t.Fatal(err)
	}
	if err := w.Error("model support exhausted   badly"); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(bytes.NewReader(body.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	f, err := r.Next()
	if err != nil || f.Kind != KindAddrs || f.Count != 1 {
		t.Fatalf("first frame = %+v, %v (Error must flush pending data first)", f, err)
	}
	f, err = r.Next()
	if err != nil || f.Kind != KindError {
		t.Fatalf("second frame = %+v, %v", f, err)
	}
	if f.Message() != "model support exhausted   badly" {
		t.Errorf("message = %q", f.Message())
	}
}

// TestWriterErrorTruncates pins the 64 KiB - 1 cap on error messages.
func TestWriterErrorTruncates(t *testing.T) {
	var body bytes.Buffer
	body.Write(AppendHeader(nil, Header{Streams: 1}))
	w := NewWriter(&body, 0, false, 0)
	if err := w.Error(strings.Repeat("x", 1<<17)); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(bytes.NewReader(body.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	f, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Message()) != maxErrorLen {
		t.Errorf("message length = %d, want %d", len(f.Message()), maxErrorLen)
	}
}

func TestReaderRejectsMalformed(t *testing.T) {
	hdr := AppendHeader(nil, Header{Streams: 1})
	frame := func(b ...byte) []byte { return append(append([]byte(nil), hdr...), b...) }
	cases := []struct {
		name string
		body []byte
		err  error
	}{
		{"unknown kind", frame(0x7f, 0, 0, 0), ErrBadFrame},
		{"stream out of range", frame(KindAddrs, 1, 0, 1), ErrBadFrame},
		{"empty data frame", frame(KindAddrs, 0, 0, 0), ErrBadFrame},
		{"oversized count", frame(KindAddrs, 0, 0xff, 0xff), ErrFrameTooBig},
		{"truncated header", frame(KindAddrs, 0), ErrBadFrame},
		{"truncated payload", frame(KindAddrs, 0, 0, 2, 1, 2, 3), ErrBadFrame},
		{"seed wrong count", frame(KindSeed, 0, 0, 2), ErrBadFrame},
		{"end with count", frame(KindEnd, 0, 0, 1), ErrBadFrame},
		{"prefix bits over 128", append(frame(KindPrefixes, 0, 0, 1), append(make([]byte, 16), 129)...), ErrBadFrame},
	}
	for _, tc := range cases {
		r, err := NewReader(bytes.NewReader(tc.body))
		if err != nil {
			t.Fatalf("%s: header: %v", tc.name, err)
		}
		if _, err := r.Next(); !errors.Is(err, tc.err) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.err)
		}
	}
}

// TestReaderReset checks a pooled Reader decodes a second body cleanly.
func TestReaderReset(t *testing.T) {
	mk := func(seed int64, n int) []byte {
		var b bytes.Buffer
		b.Write(AppendHeader(nil, Header{Streams: 1, Seed: seed}))
		w := NewWriter(&b, 0, false, 0)
		for _, a := range testAddrs(n, seed) {
			if err := w.AddAddr(a); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.End(); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	r, err := NewReader(bytes.NewReader(mk(1, 10)))
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := r.Next(); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Reset(bytes.NewReader(mk(2, 5000))); err != nil {
		t.Fatal(err)
	}
	if r.Header().Seed != 2 {
		t.Fatalf("second header seed = %d", r.Header().Seed)
	}
	n := 0
	for {
		f, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if f.Kind == KindAddrs {
			n += f.Count
		}
	}
	if n != 5000 {
		t.Fatalf("second body decoded %d addrs, want 5000", n)
	}
}

// TestWriterZeroAlloc pins the encode path's allocation contract: after
// Reset, adding records and flushing frames into a discard sink must not
// allocate.
func TestWriterZeroAlloc(t *testing.T) {
	addrs := testAddrs(MaxFrameRecords+17, 1)
	w := NewWriter(io.Discard, 0, false, 0)
	allocs := testing.AllocsPerRun(100, func() {
		w.Reset(io.Discard, 0, false, 0)
		for _, a := range addrs {
			if err := w.AddAddr(a); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.End(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("encode path allocates %.1f/run, want 0", allocs)
	}
}

func TestTraceFrameRoundTrip(t *testing.T) {
	id := [16]byte{0x4b, 0xf9, 0x2f, 0x35, 0x77, 0xb3, 0x4d, 0xa6,
		0xa3, 0xce, 0x92, 0x9d, 0x0e, 0x0e, 0x47, 0x36}
	var body bytes.Buffer
	body.Write(AppendHeader(nil, Header{Streams: 1}))
	body.Write(AppendTraceFrame(nil, 0, id))
	w := NewWriter(&body, 0, false, 0)
	if err := w.AddAddr(ip6.Addr{}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	body.Write(AppendTraceFrame(nil, 0, id))
	if err := w.End(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(bytes.NewReader(body.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	f, err := r.Next()
	if err != nil || f.Kind != KindTrace || f.Count != 1 {
		t.Fatalf("first frame = %+v, %v", f, err)
	}
	if f.TraceID() != id {
		t.Fatalf("trace id = %x, want %x", f.TraceID(), id)
	}
	f, err = r.Next()
	if err != nil || f.Kind != KindAddrs || f.Count != 1 {
		t.Fatalf("second frame = %+v, %v", f, err)
	}
	f, err = r.Next()
	if err != nil || f.Kind != KindTrace || f.TraceID() != id {
		t.Fatalf("third frame = %+v, %v (Writer.Trace)", f, err)
	}
	if f, err = r.Next(); err != nil || f.Kind != KindEnd {
		t.Fatalf("fourth frame = %+v, %v", f, err)
	}
}

func TestTraceFrameRejectsBadCount(t *testing.T) {
	body := AppendHeader(nil, Header{Streams: 1})
	body = append(body, KindTrace, 0, 0, 2) // count must be 1
	r, err := NewReader(bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("err = %v, want ErrBadFrame", err)
	}
}
