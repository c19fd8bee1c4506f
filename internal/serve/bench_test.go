package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"entropyip/internal/core"
	"entropyip/internal/dataset"
	"entropyip/internal/ingest"
	"entropyip/internal/ip6"
	"entropyip/internal/registry"
	"entropyip/internal/wire"
)

// BenchmarkGenerateNDJSON is the CI-gated per-line cost of the NDJSON
// generate stream: one candidate address through the real ndjsonSink —
// formatted into its pooled buffer, written in DefaultFlushEvery-line
// chunks through a lockedSink — exactly as generateStreams runs it per
// candidate. Steady state must be 0 allocs/op (gated strictly by
// scripts/check_bench.sh) — this is the "0 amortized allocs/address"
// acceptance number for the streaming path.
func BenchmarkGenerateNDJSON(b *testing.B) {
	addrs := testAddrs(4096, 1)
	out := &lockedSink{bw: bufio.NewWriter(io.Discard), ctx: context.Background()}
	lb := getLineBuf()
	defer putLineBuf(lb)
	var sink candidateSink = newNDJSONSink(out, lb, 0, false, false, "")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sink.add(addrs[i%len(addrs)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGenerateNDJSONReference is the old per-line path — one
// json.Encoder round trip per candidate — kept as the informational
// baseline BenchmarkGenerateNDJSON's win is quoted against in DESIGN.md.
func BenchmarkGenerateNDJSONReference(b *testing.B) {
	addrs := testAddrs(4096, 1)
	bw := bufio.NewWriter(io.Discard)
	enc := json.NewEncoder(bw)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := enc.Encode(GenerateItem{Addr: addrs[i%len(addrs)].String()}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGenerateBinary100k is the CI-gated frame-encode cost of the
// binary generate path: 100k candidate addresses per op through the real
// wireSink over a reused wire.Writer and a lockedSink (header write, data
// frames of DefaultFlushEvery records, End frame), exactly as
// generateStreams runs a single stream. Steady state must be 0 allocs/op,
// and scripts/check_bench.sh compares its per-candidate cost against
// BenchmarkGenerateNDJSON in the same run — the binary encoding must stay
// at least 2x the NDJSON throughput.
func BenchmarkGenerateBinary100k(b *testing.B) {
	const perOp = 100_000
	addrs := testAddrs(4096, 1)
	out := &lockedSink{bw: bufio.NewWriter(io.Discard), ctx: context.Background()}
	hdr := wire.AppendHeader(nil, wire.Header{Streams: 1, Seed: 1})
	ww := new(wire.Writer)
	var sink candidateSink = &wireSink{ww: ww}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := out.bw.Write(hdr); err != nil {
			b.Fatal(err)
		}
		ww.Reset(out, 0, false, DefaultFlushEvery)
		for j := 0; j < perOp; j++ {
			if err := sink.add(addrs[j%len(addrs)]); err != nil {
				b.Fatal(err)
			}
		}
		if err := sink.close(""); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(perOp*b.N)/b.Elapsed().Seconds(), "addrs/s")
}

// BenchmarkObserveBinary10k is the CI-gated frame-decode cost of the
// binary observe path: a 10k-address binary body per op through a
// reused wire.Reader, with every decoded batch pushed into a live
// ingest.Buffer — `Server.observe`'s loop without the HTTP envelope.
// Steady state must be 0 allocs/op.
func BenchmarkObserveBinary10k(b *testing.B) {
	const perOp = 10_000
	addrs := testAddrs(perOp, 2)
	var body bytes.Buffer
	body.Write(wire.AppendHeader(nil, wire.Header{Streams: 1}))
	ww := wire.NewWriter(&body, 0, false, 0)
	for _, a := range addrs {
		if err := ww.AddAddr(a); err != nil {
			b.Fatal(err)
		}
	}
	if err := ww.End(); err != nil {
		b.Fatal(err)
	}
	payload := body.Bytes()
	buf := ingest.New(ingest.Config{WindowSize: 16384})
	// Warm the window so the benchmark measures steady-state overwrite.
	buf.AddBatch(addrs)
	batch := make([]ip6.Addr, 0, observeBatchSize)
	var br bytes.Reader
	br.Reset(payload)
	rd, err := wire.NewReader(&br)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		br.Reset(payload)
		if err := rd.Reset(&br); err != nil {
			b.Fatal(err)
		}
		for {
			f, err := rd.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
			switch f.Kind {
			case wire.KindAddrs:
				for j := 0; j < f.Count; j++ {
					batch = append(batch, f.Addr(j))
					if len(batch) >= observeBatchSize {
						buf.AddBatch(batch)
						batch = batch[:0]
					}
				}
			case wire.KindEnd:
			default:
				b.Fatalf("unexpected frame kind 0x%02x", f.Kind)
			}
		}
	}
	b.ReportMetric(float64(perOp*b.N)/b.Elapsed().Seconds(), "addrs/s")
}

// BenchmarkObserveIngest is the CI-gated per-address cost of the observe
// ingest path: one bare NDJSON line trimmed, parsed from its byte slice
// and batched, with every full batch pushed into a live ingest.Buffer —
// the handler's loop without the HTTP envelope. Steady state must be 0
// allocs/op.
func BenchmarkObserveIngest(b *testing.B) {
	addrs := testAddrs(4096, 2)
	lines := make([][]byte, len(addrs))
	for i, a := range addrs {
		lines[i] = a.AppendString(make([]byte, 0, 64))
	}
	buf := ingest.New(ingest.Config{WindowSize: 16384})
	// Warm the window so the benchmark measures steady-state overwrite,
	// not initial ring growth.
	buf.AddBatch(addrs)
	batch := make([]ip6.Addr, 0, observeBatchSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		line := bytes.TrimSpace(lines[i%len(lines)])
		a, ok, err := parseObserveLine(line)
		if err != nil || !ok {
			b.Fatalf("line %q: ok=%v err=%v", line, ok, err)
		}
		batch = append(batch, a)
		if len(batch) >= observeBatchSize {
			buf.AddBatch(batch)
			batch = batch[:0]
		}
	}
}

// BenchmarkObserveHTTP is the end-to-end observe request: a 10k-address
// NDJSON body through the live handler (registry lookup, scanner, pooled
// batches, ingest buffer, drift bookkeeping). Informational: per-address
// cost is ns/op divided by 10_000; allocs/op is whole-request.
func BenchmarkObserveHTTP(b *testing.B) {
	s, reg := benchServer(b)
	if _, err := reg.Put("bench", benchModel(b)); err != nil {
		b.Fatal(err)
	}
	var body bytes.Buffer
	for _, a := range testAddrs(10_000, 3) {
		body.Write(a.AppendString(nil))
		body.WriteByte('\n')
	}
	payload := body.Bytes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest("POST", "/v1/models/bench/observe", bytes.NewReader(payload))
		w := &discardResponseWriter{header: make(http.Header)}
		s.ServeHTTP(w, req)
		if w.status != http.StatusOK {
			b.Fatalf("status = %d", w.status)
		}
	}
}

// BenchmarkGenerateHTTP is the end-to-end generate request: 10k
// candidates streamed as NDJSON through the live handler into a discard
// writer. Informational companion to BenchmarkGenerateNDJSON.
func BenchmarkGenerateHTTP(b *testing.B) {
	s, reg := benchServer(b)
	if _, err := reg.Put("bench", benchModel(b)); err != nil {
		b.Fatal(err)
	}
	payload := []byte(`{"count": 10000, "seed": 1}`)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest("POST", "/v1/models/bench/generate", bytes.NewReader(payload))
		w := &discardResponseWriter{header: make(http.Header)}
		s.ServeHTTP(w, req)
		if w.status != http.StatusOK {
			b.Fatalf("status = %d", w.status)
		}
	}
}

// parseObserveLine is the handler's bare-line fast path — the same
// parser the observe loop's default case calls.
func parseObserveLine(line []byte) (ip6.Addr, bool, error) {
	return dataset.ParseLineBytes(line)
}

func benchServer(b *testing.B) (*Server, *registry.Registry) {
	b.Helper()
	reg, err := registry.Open(b.TempDir(), 8)
	if err != nil {
		b.Fatal(err)
	}
	// Keep drift evaluation out of the ingest benchmark's inner loop: it
	// runs on its own cadence in production and is measured elsewhere.
	return New(reg, Options{Refresh: RefreshOptions{EvaluateEvery: 1 << 30}}), reg
}

func benchModel(b *testing.B) *core.Model {
	b.Helper()
	m, err := core.Build(testAddrs(1500, 1), core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// discardResponseWriter is an http.ResponseWriter that throws the body
// away without accumulating it (httptest.ResponseRecorder would grow a
// buffer and dominate the allocation profile).
type discardResponseWriter struct {
	header http.Header
	status int
}

func (w *discardResponseWriter) Header() http.Header { return w.header }
func (w *discardResponseWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return len(p), nil
}
func (w *discardResponseWriter) WriteHeader(status int) {
	if w.status == 0 {
		w.status = status
	}
}
func (w *discardResponseWriter) Flush() {}
