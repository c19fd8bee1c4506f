package trace

import (
	"testing"
	"time"
)

// BenchmarkSpanHotPath is the request hot path's zero-allocation
// contract, gated in scripts/check_bench.sh ZERO_ALLOC: open a root
// span, set the attributes the serve middleware sets, open and finish a
// child, finish the root. SampleEvery is huge and the threshold high so
// every arena is discarded and recycled — the steady state under normal
// traffic, where tracing must be free.
func BenchmarkSpanHotPath(b *testing.B) {
	rec := NewRecorder(Policy{SampleEvery: 1 << 30, SlowThreshold: time.Hour})
	tr := NewTracer(rec)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		root := tr.StartRoot("GET /v1/models/{model}/generate", SpanContext{})
		root.SetAttr("encoding", "binary")
		root.SetInt("status", 200)
		c := root.StartChild("generate.stream")
		c.SetInt("produced", 100000)
		c.Finish()
		root.Finish()
	}
}

// BenchmarkSpanHotPathJoined is the same path joining an inbound
// traceparent — the forced keep copies the used spans into a retained
// trace (two allocations) before the arena is recycled, so this is
// informational, not zero-alloc gated.
func BenchmarkSpanHotPathJoined(b *testing.B) {
	rec := NewRecorder(Policy{SampleEvery: 1 << 30, SlowThreshold: time.Hour, Capacity: 64})
	tr := NewTracer(rec)
	sc := NewSpanContext()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		root := tr.StartRoot("GET /v1/models/{model}/generate", sc)
		root.SetInt("status", 200)
		root.Finish()
	}
}

func BenchmarkTraceparentParse(b *testing.B) {
	h := Traceparent(NewSpanContext())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ParseTraceparent(h); err != nil {
			b.Fatal(err)
		}
	}
}
