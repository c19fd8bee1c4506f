package trace

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTraceparentRoundTrip(t *testing.T) {
	sc := NewSpanContext()
	h := Traceparent(sc)
	if len(h) != 55 || !strings.HasPrefix(h, "00-") || !strings.HasSuffix(h, "-01") {
		t.Fatalf("unexpected traceparent form: %q", h)
	}
	got, err := ParseTraceparent(h)
	if err != nil {
		t.Fatalf("ParseTraceparent(%q): %v", h, err)
	}
	if got != sc {
		t.Fatalf("round trip mismatch: sent %+v got %+v", sc, got)
	}
}

func TestTraceparentUnsampledFlag(t *testing.T) {
	sc := NewSpanContext()
	sc.Sampled = false
	got, err := ParseTraceparent(Traceparent(sc))
	if err != nil {
		t.Fatal(err)
	}
	if got.Sampled {
		t.Fatal("flags 00 parsed as sampled")
	}
}

func TestParseTraceparentRejectsInvalid(t *testing.T) {
	valid := "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	if _, err := ParseTraceparent(valid); err != nil {
		t.Fatalf("spec example rejected: %v", err)
	}
	bad := []string{
		"",
		"00",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7",     // missing flags
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01",  // zero trace-id
		"00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01",  // zero span-id
		"ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",  // version ff
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01x", // v00 must be exactly 55
		"0x-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",  // non-hex version
		"00-4bf92f3577b34da6a3ce929d0eze4736-00f067aa0ba902b7-01",  // non-hex trace-id
		"00_4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",  // wrong delimiter
	}
	for _, h := range bad {
		if _, err := ParseTraceparent(h); err == nil {
			t.Errorf("ParseTraceparent(%q) accepted invalid value", h)
		}
	}
	// Future versions: parse the known prefix, tolerate trailing fields.
	future := "cc-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-extra"
	sc, err := ParseTraceparent(future)
	if err != nil {
		t.Fatalf("future version rejected: %v", err)
	}
	if !sc.IsValid() || !sc.Sampled {
		t.Fatalf("future version parsed wrong: %+v", sc)
	}
}

func TestIDsNonZeroAndDistinct(t *testing.T) {
	seen := map[TraceID]bool{}
	for i := 0; i < 1000; i++ {
		id := NewTraceID()
		if !id.IsValid() {
			t.Fatal("zero trace id")
		}
		if seen[id] {
			t.Fatal("duplicate trace id within 1000 draws")
		}
		seen[id] = true
	}
	if ParseMustFail := func() bool { _, err := ParseTraceID(strings.Repeat("0", 32)); return err == nil }(); ParseMustFail {
		t.Fatal("ParseTraceID accepted the all-zero id")
	}
	id := NewTraceID()
	back, err := ParseTraceID(id.String())
	if err != nil || back != id {
		t.Fatalf("ParseTraceID round trip: %v %v", back, err)
	}
}

// newTestSetup returns a tracer whose recorder keeps nothing
// probabilistically unless cfg overrides.
func newTestSetup(p Policy) (*Tracer, *Recorder) {
	rec := NewRecorder(p)
	return NewTracer(rec), rec
}

func TestTailSamplingReasons(t *testing.T) {
	tr, rec := newTestSetup(Policy{SampleEvery: -1, SlowThreshold: time.Hour})

	// Fast, clean, unforced: discarded.
	root := tr.StartRoot("clean", SpanContext{})
	root.Finish()
	if st := rec.Stats(); st.Kept != 0 || st.Discarded != 1 {
		t.Fatalf("clean trace not discarded: %+v", st)
	}

	// Error: kept with reason "error".
	root = tr.StartRoot("boom", SpanContext{})
	id := root.TraceID()
	c := root.StartChild("inner")
	c.SetError("kaput")
	c.Finish()
	root.Finish()
	tree, ok := rec.Get(id)
	if !ok {
		t.Fatal("error trace not retained")
	}
	if tree.Kept != "error" {
		t.Fatalf("kept reason = %q, want error", tree.Kept)
	}
	if len(tree.Root.Children) != 1 || tree.Root.Children[0].Error != "kaput" {
		t.Fatalf("tree shape wrong: %+v", tree.Root)
	}

	// ForceKeep: kept with reason "forced".
	root = tr.StartRoot("rare", SpanContext{})
	id = root.TraceID()
	root.ForceKeep()
	root.Finish()
	if tree, ok = rec.Get(id); !ok || tree.Kept != "forced" {
		t.Fatalf("forced trace: ok=%v kept=%q", ok, tree.Kept)
	}

	// Inbound sampled traceparent: forced keep too.
	up := NewSpanContext()
	root = tr.StartRoot("joined", up)
	root.Finish()
	if tree, ok = rec.Get(up.TraceID); !ok || tree.Kept != "forced" {
		t.Fatalf("upstream-sampled trace: ok=%v kept=%q", ok, tree.Kept)
	}
	if tree.RemoteParent != up.SpanID.String() {
		t.Fatalf("remote parent = %q, want %q", tree.RemoteParent, up.SpanID.String())
	}
}

// TestGetMergesSameTraceID pins the connected-trace contract: two request
// traces joined from the same upstream traceparent (a client round of pull
// then feedback) come back from Get as one tree under a synthetic root,
// children ordered by start time on a shared timeline.
func TestGetMergesSameTraceID(t *testing.T) {
	tr, rec := newTestSetup(Policy{SampleEvery: -1, SlowThreshold: time.Hour})
	up := NewSpanContext()

	first := tr.StartRoot("POST /v1/models/{name}/generate", up)
	first.Finish()
	time.Sleep(2 * time.Millisecond)
	second := tr.StartRoot("POST /v1/models/{name}/observe", up)
	c := second.StartChild("observe.ingest")
	c.Finish()
	second.Finish()

	tree, ok := rec.Get(up.TraceID)
	if !ok {
		t.Fatal("merged trace not retained")
	}
	if tree.Root.Name != "trace" {
		t.Fatalf("merged root name = %q, want synthetic \"trace\"", tree.Root.Name)
	}
	if len(tree.Root.Children) != 2 {
		t.Fatalf("merged children = %d, want 2", len(tree.Root.Children))
	}
	gen, obs := tree.Root.Children[0], tree.Root.Children[1]
	if gen.Name != "POST /v1/models/{name}/generate" || obs.Name != "POST /v1/models/{name}/observe" {
		t.Fatalf("children out of start order: %q, %q", gen.Name, obs.Name)
	}
	if obs.StartUS <= gen.StartUS {
		t.Errorf("second request not re-based onto merged timeline: %d <= %d", obs.StartUS, gen.StartUS)
	}
	if len(obs.Children) != 1 || obs.Children[0].Name != "observe.ingest" {
		t.Errorf("nested child lost in merge: %+v", obs.Children)
	}
	if obs.Children[0].StartUS < obs.StartUS {
		t.Errorf("nested child start %d precedes its request start %d", obs.Children[0].StartUS, obs.StartUS)
	}
	if tree.Kept != "forced" {
		t.Errorf("merged kept = %q, want deduplicated \"forced\"", tree.Kept)
	}
	if tree.RemoteParent != up.SpanID.String() {
		t.Errorf("merged remote parent = %q, want %q", tree.RemoteParent, up.SpanID.String())
	}
	if tree.Root.DurationUS <= 0 {
		t.Errorf("merged root duration = %d, want > 0", tree.Root.DurationUS)
	}
}

func TestTailSamplingSlowAndProbabilistic(t *testing.T) {
	tr, rec := newTestSetup(Policy{SampleEvery: 3, SlowThreshold: time.Nanosecond})
	root := tr.StartRoot("slow", SpanContext{})
	id := root.TraceID()
	time.Sleep(time.Millisecond)
	root.Finish()
	if tree, ok := rec.Get(id); !ok || tree.Kept != "slow" {
		t.Fatalf("slow trace: ok=%v", ok)
	}

	tr2, rec2 := newTestSetup(Policy{SampleEvery: 3, SlowThreshold: time.Hour})
	for i := 0; i < 9; i++ {
		tr2.StartRoot("t", SpanContext{}).Finish()
	}
	if st := rec2.Stats(); st.Kept != 3 || st.Discarded != 6 {
		t.Fatalf("1-in-3 sampling over 9 traces: %+v", st)
	}
	for _, s := range rec2.List(0) {
		if s.Kept != "sampled" {
			t.Fatalf("kept reason %q, want sampled", s.Kept)
		}
	}
}

func TestRingEvictionBounded(t *testing.T) {
	tr, rec := newTestSetup(Policy{Capacity: 16, SampleEvery: 1})
	for i := 0; i < 500; i++ {
		tr.StartRoot("t", SpanContext{}).Finish()
	}
	st := rec.Stats()
	if st.Retained > st.Capacity {
		t.Fatalf("retained %d > capacity %d", st.Retained, st.Capacity)
	}
	if st.Kept != 500 {
		t.Fatalf("kept = %d, want 500", st.Kept)
	}
	if got := len(rec.List(0)); got != st.Retained {
		t.Fatalf("List returned %d, stats say %d", got, st.Retained)
	}
	// Newest first.
	l := rec.List(5)
	if len(l) != 5 {
		t.Fatalf("List(5) returned %d", len(l))
	}
}

func TestRingCapacityExactNewestFirst(t *testing.T) {
	tr, rec := newTestSetup(Policy{Capacity: 10, SampleEvery: 1})
	ids := make([]TraceID, 25)
	for i := range ids {
		root := tr.StartRoot("t", SpanContext{})
		ids[i] = root.TraceID()
		root.Finish()
	}
	if st := rec.Stats(); st.Capacity != 10 || st.Retained != 10 || st.Kept != 25 {
		t.Fatalf("stats = %+v, want capacity 10, retained 10, kept 25", st)
	}
	l := rec.List(0)
	if len(l) != 10 {
		t.Fatalf("List returned %d, want 10", len(l))
	}
	for i, s := range l {
		if want := ids[24-i].String(); s.TraceID != want {
			t.Fatalf("List[%d] = %s, want keep #%d (%s)", i, s.TraceID, 24-i, want)
		}
	}
	// The globally oldest traces are the ones evicted.
	if _, ok := rec.Get(ids[14]); ok {
		t.Fatal("keep #14 still retained")
	}
}

func TestArenaOverflowDropsSpans(t *testing.T) {
	tr, rec := newTestSetup(Policy{SampleEvery: 1})
	root := tr.StartRoot("r", SpanContext{})
	id := root.TraceID()
	for i := 0; i < 70; i++ {
		c := root.StartChild("c") // nil past slot 63; must stay safe
		c.SetInt("i", int64(i))
		c.Finish()
	}
	root.Finish()
	tree, ok := rec.Get(id)
	if !ok {
		t.Fatal("trace not kept")
	}
	if len(tree.Root.Children) != 63 {
		t.Fatalf("children = %d, want 63 (arena of 64 incl root)", len(tree.Root.Children))
	}
	if tree.Dropped != 7 {
		t.Fatalf("dropped = %d, want 7", tree.Dropped)
	}
}

func TestNilTracerAndSpanSafe(t *testing.T) {
	var tr *Tracer
	s := tr.StartRoot("x", SpanContext{})
	if s != nil {
		t.Fatal("nil tracer returned a span")
	}
	// Every method must be a no-op, not a panic.
	s.SetAttr("k", "v")
	s.SetInt("k", 1)
	s.SetFloat("k", 1.5)
	s.SetBool("k", true)
	s.SetError("e")
	s.ForceKeep()
	s.RecordChild("c", time.Second)
	c := s.StartChild("c")
	c.Finish()
	s.Finish()
	if s.Failed() {
		t.Fatal("nil span reports failed")
	}
	if s.TraceID().IsValid() || s.Context().IsValid() {
		t.Fatal("nil span has identity")
	}
	ctx := ContextWithSpan(context.Background(), s)
	if SpanFromContext(ctx) != nil {
		t.Fatal("nil span came back non-nil")
	}
	if Outbound(context.Background()).IsValid() {
		t.Fatal("empty context produced an outbound identity")
	}
}

func TestContextPropagation(t *testing.T) {
	tr, _ := newTestSetup(Policy{})
	root := tr.StartRoot("r", SpanContext{})
	ctx := ContextWithSpan(context.Background(), root)
	if SpanFromContext(ctx) != root {
		t.Fatal("span lost in context")
	}
	out := Outbound(ctx)
	if out.TraceID != root.TraceID() || !out.Sampled {
		t.Fatalf("outbound context wrong: %+v", out)
	}
	root.Finish()

	sc := NewSpanContext()
	rctx := ContextWithRemote(context.Background(), sc)
	if got := Outbound(rctx); got != sc {
		t.Fatalf("remote outbound = %+v, want %+v", got, sc)
	}
}

func TestRecordChildBackdatesStart(t *testing.T) {
	tr, rec := newTestSetup(Policy{SampleEvery: 1})
	root := tr.StartRoot("r", SpanContext{})
	id := root.TraceID()
	root.RecordChild("stage", 40*time.Millisecond)
	root.Finish()
	tree, ok := rec.Get(id)
	if !ok || len(tree.Root.Children) != 1 {
		t.Fatal("recorded child missing")
	}
	d := tree.Root.Children[0].DurationUS
	if d < 39_000 || d > 120_000 {
		t.Fatalf("recorded child duration %dus, want ~40ms", d)
	}
}

func TestAttrLimitAndKinds(t *testing.T) {
	tr, rec := newTestSetup(Policy{SampleEvery: 1})
	root := tr.StartRoot("r", SpanContext{})
	id := root.TraceID()
	root.SetAttr("s", "str")
	root.SetInt("i", -7)
	root.SetFloat("f", 2.5)
	root.SetBool("b", true)
	for i := 0; i < 2*MaxSpanAttrs; i++ {
		root.SetInt("overflow", int64(i))
	}
	root.Finish()
	tree, _ := rec.Get(id)
	a := tree.Root.Attrs
	if a["s"] != "str" || a["i"] != int64(-7) || a["f"] != 2.5 || a["b"] != true {
		t.Fatalf("attr values wrong: %+v", a)
	}
	if len(a) > MaxSpanAttrs {
		t.Fatalf("attrs exceeded limit: %d", len(a))
	}
}

// TestRecorderRace hammers the ring from 8 goroutines: each produces
// traces with children (all kept), while two more list and fetch
// concurrently. Run under -race this pins the lock discipline.
func TestRecorderRace(t *testing.T) {
	tr, rec := newTestSetup(Policy{Capacity: 64, SampleEvery: 1})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				root := tr.StartRoot("req", SpanContext{})
				root.SetInt("g", int64(g))
				c := root.StartChild("child")
				c.SetAttr("k", "v")
				if i%7 == 0 {
					c.SetError("induced")
				}
				c.Finish()
				root.Finish()
			}
		}(g)
	}
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, s := range rec.List(32) {
					id, err := ParseTraceID(s.TraceID)
					if err != nil {
						t.Errorf("bad listed trace id %q", s.TraceID)
						return
					}
					rec.Get(id) // miss ok (evicted); must not race
				}
				rec.Stats()
			}
		}()
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	st := rec.Stats()
	if st.Kept != 8*300 {
		t.Fatalf("kept = %d, want %d", st.Kept, 8*300)
	}
	if st.Retained > st.Capacity {
		t.Fatalf("retained %d > capacity %d", st.Retained, st.Capacity)
	}
}

func TestStragglerChildClosedAtRootEnd(t *testing.T) {
	tr, rec := newTestSetup(Policy{SampleEvery: 1})
	root := tr.StartRoot("r", SpanContext{})
	id := root.TraceID()
	_ = root.StartChild("never-finished")
	root.Finish()
	tree, ok := rec.Get(id)
	if !ok {
		t.Fatal("trace not kept")
	}
	c := tree.Root.Children[0]
	if c.DurationUS < 0 {
		t.Fatalf("straggler child has negative duration %d", c.DurationUS)
	}
	if c.StartUS+c.DurationUS > tree.Root.DurationUS+1000 {
		t.Fatalf("straggler child extends past root end")
	}
}

// retained returns the recorder's retained copy of trace id.
func retained(t *testing.T, rec *Recorder, id TraceID) *traceData {
	t.Helper()
	rec.mu.Lock()
	defer rec.mu.Unlock()
	for _, td := range rec.ring {
		if td != nil && td.traceID == id {
			return td
		}
	}
	t.Fatal("trace not kept")
	return nil
}

func TestKeptTraceHoldsUsedSpansOnly(t *testing.T) {
	tr, rec := newTestSetup(Policy{SampleEvery: 1})
	root := tr.StartRoot("r", SpanContext{})
	id := root.TraceID()
	for i := 0; i < 3; i++ {
		c := root.StartChild("c")
		c.SetInt("i", int64(i))
		c.Finish()
	}
	root.Finish()
	td := retained(t, rec, id)
	if len(td.spans) != 4 || cap(td.spans) != 4 {
		t.Fatalf("retained trace holds %d spans (cap %d), want 4", len(td.spans), cap(td.spans))
	}
	for i := range td.spans {
		if td.spans[i].td != td {
			t.Fatalf("span %d points at another trace", i)
		}
	}
	tree, ok := rec.Get(id)
	if !ok || len(tree.Root.Children) != 3 || tree.Root.Children[2].Attrs["i"] != int64(2) {
		t.Fatalf("tree = %+v, want a root with 3 children", tree.Root)
	}
}

func TestLateChildLeavesKeptCopyUnchanged(t *testing.T) {
	tr, rec := newTestSetup(Policy{SampleEvery: 1})
	root := tr.StartRoot("r", SpanContext{})
	id := root.TraceID()
	late := root.StartChild("late")
	late.SetInt("before", 1)
	root.Finish()
	before := retained(t, rec, id).spans[1]

	late.SetInt("after", 2)
	late.SetError("finished after the root")
	late.Finish()
	// A new trace may reuse pooled arenas; it must not touch the copy.
	tr.StartRoot("next", SpanContext{}).Finish()

	after := retained(t, rec, id).spans[1]
	if after.end != before.end || after.nattrs != 1 || after.status != statusUnset || after.errMsg != "" {
		t.Fatalf("retained child changed after the root finished: end %v → %v, attrs %d, status %d %q",
			before.end, after.end, after.nattrs, after.status, after.errMsg)
	}
	if !after.end.Equal(retained(t, rec, id).spans[0].end) {
		t.Fatalf("unfinished child not closed at the root's end")
	}
}
