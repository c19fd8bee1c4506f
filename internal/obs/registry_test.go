package obs

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files with this run's output")

// TestRenderGolden pins the full exposition byte-for-byte: HELP/TYPE
// ordering, label rendering and escaping, histogram triplets, collector
// output, and the lexicographic family sort. Regenerate after deliberate
// format changes with: go test ./internal/obs -run RenderGolden -update
func TestRenderGolden(t *testing.T) {
	r := NewRegistry()
	reqs := r.Counter("demo_requests_total", "Requests served.", "route", "GET /v1/models")
	reqs.Add(17)
	r.Counter("demo_requests_total", "Requests served.", "route", "POST /v1/models/{name}/generate").Add(3)
	plain := r.Counter("demo_restarts_total", "Restarts (unlabeled counter).")
	plain.Inc()
	r.GaugeFunc("demo_in_flight", "In-flight requests.", func() float64 { return 2 })
	r.GaugeFunc("demo_uptime_seconds", "Uptime (gauge func).", func() float64 { return 12.5 })
	r.Counter("demo_ticks_total", "Ticks (counter func).").Add(99)
	h := r.Histogram("demo_request_seconds", "Request latency.", []float64{0.025, 0.25, 2.5}, "route", "GET /v1/models")
	for _, v := range []float64{0.01, 0.02, 0.2, 1, 30} {
		h.Observe(v)
	}
	// Label escaping: backslash, quote, newline in a value.
	r.Counter("demo_weird_total", "Escaping check.", "path", "a\\b\"c\nd").Add(7)
	// Help escaping: backslash and newline.
	r.GaugeFunc("demo_helptext", "line one\nline \\ two", func() float64 { return 1 })
	// Dynamic per-entity series via a collector.
	r.Collect(func(e *Expo) {
		e.Gauge("demo_model_window", "Per-model ingest window.", 4096, "model", "web")
		e.Gauge("demo_model_window", "Per-model ingest window.", 512, "model", "dns")
		e.Counter("demo_model_rotations_total", "Per-model rotations.", 2, "model", "web")
	})

	got := r.Render(nil)
	golden := filepath.Join("testdata", "exposition.golden")
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if string(got) != string(want) {
		t.Fatalf("exposition mismatch\n-- got --\n%s\n-- want --\n%s", got, want)
	}
}

func TestRenderAppendsToCallerBuffer(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "x").Inc()
	buf := append(make([]byte, 0, 512), "PREFIX"...)
	out := r.Render(buf)
	if !strings.HasPrefix(string(out), "PREFIX# HELP x_total") {
		t.Fatalf("Render did not append to the caller's buffer: %q", out)
	}
}

func TestLabelEscaping(t *testing.T) {
	got := renderLabels([]string{"k", `back\slash "quote"` + "\nnewline"})
	want := `k="back\\slash \"quote\"\nnewline"`
	if got != want {
		t.Fatalf("renderLabels = %s, want %s", got, want)
	}
}

func TestExpoGroupsFamilies(t *testing.T) {
	e := newExpo()
	e.Gauge("a", "help a", 1, "m", "x")
	e.Gauge("a", "help a", 2, "m", "y")
	if len(e.fams) != 1 || len(e.fams[0].samples) != 2 {
		t.Fatalf("expo grouping broken: %+v", e.fams)
	}
	out := string(e.fams[0].render(nil, false))
	if strings.Count(out, "# TYPE a gauge") != 1 {
		t.Fatalf("TYPE line not emitted exactly once:\n%s", out)
	}
}

func TestDynamicNameCollisionDropped(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total", "static").Add(5)
	r.Collect(func(e *Expo) {
		e.Counter("c_total", "dynamic", 999) // collides with static: dropped
		e.Gauge("d", "dynamic ok", 1)
	})
	out := string(r.Render(nil))
	if strings.Contains(out, "999") {
		t.Fatalf("colliding dynamic sample leaked into output:\n%s", out)
	}
	if !strings.Contains(out, "c_total 5\n") || !strings.Contains(out, "d 1\n") {
		t.Fatalf("expected samples missing:\n%s", out)
	}
}

func TestRenderOpenMetricsExemplars(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("eip_lat_seconds", "latency", []float64{0.1, 1})
	h.Observe(0.05) // no exemplar on this bucket
	h.ObserveExemplar(0.5, "4bf92f3577b34da6a3ce929d0e0e4736")
	h.ObserveExemplar(5, "deadbeefdeadbeefdeadbeefdeadbeef")
	r.Counter("eip_reqs_total", "requests").Add(3)

	text := string(r.Render(nil))
	if strings.Contains(text, "# {") || strings.Contains(text, "# EOF") {
		t.Fatalf("text v0.0.4 output must not carry exemplars or EOF:\n%s", text)
	}
	if !strings.Contains(text, "# TYPE eip_reqs_total counter") {
		t.Fatalf("text counter TYPE keeps _total:\n%s", text)
	}

	om := string(r.RenderOpenMetrics(nil))
	if !strings.HasSuffix(om, "# EOF\n") {
		t.Fatalf("OpenMetrics output must end with # EOF:\n%s", om)
	}
	if !strings.Contains(om, "# TYPE eip_reqs counter") {
		t.Fatalf("OM counter family name must drop _total:\n%s", om)
	}
	if !strings.Contains(om, "eip_reqs_total 3") {
		t.Fatalf("OM counter sample keeps _total:\n%s", om)
	}
	want := `eip_lat_seconds_bucket{le="1"} 2 # {trace_id="4bf92f3577b34da6a3ce929d0e0e4736"} 0.5`
	if !strings.Contains(om, want) {
		t.Fatalf("missing exemplar line %q in:\n%s", want, om)
	}
	wantInf := `eip_lat_seconds_bucket{le="+Inf"} 3 # {trace_id="deadbeefdeadbeefdeadbeefdeadbeef"} 5`
	if !strings.Contains(om, wantInf) {
		t.Fatalf("missing +Inf exemplar line %q in:\n%s", wantInf, om)
	}
	// Bucket without an exemplar renders bare.
	if !strings.Contains(om, "eip_lat_seconds_bucket{le=\"0.1\"} 1\n") {
		t.Fatalf("exemplar-free bucket changed:\n%s", om)
	}
}

func TestExemplarLatestWinsAndBounds(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("eip_x_seconds", "x", []float64{1})
	h.ObserveExemplar(0.5, "aaaa")
	h.ObserveExemplar(0.7, "bbbb")
	h.ObserveExemplar(0.9, strings.Repeat("c", 64)) // over cap: count, skip exemplar
	h.ObserveExemplar(0.9, "")                      // empty: count, skip exemplar
	om := string(r.RenderOpenMetrics(nil))
	if !strings.Contains(om, `# {trace_id="bbbb"} 0.7`) {
		t.Fatalf("latest exemplar did not win:\n%s", om)
	}
	if histCount(h) != 4 {
		t.Fatalf("count = %d, want 4", histCount(h))
	}
}

func TestExemplarRace(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("eip_r_seconds", "r", []float64{1})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 5000; i++ {
			h.ObserveExemplar(0.5, "0123456789abcdef0123456789abcdef")
		}
	}()
	for i := 0; i < 200; i++ {
		r.RenderOpenMetrics(nil)
	}
	<-done
	if histCount(h) != 5000 {
		t.Fatalf("count = %d", histCount(h))
	}
}
