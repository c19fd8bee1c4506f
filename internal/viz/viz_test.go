package viz

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"entropyip/internal/core"
	"entropyip/internal/entropy"
	"entropyip/internal/ip6"
)

// vizModel builds a small model for rendering tests.
func vizModel(t *testing.T) *core.Model {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	base := ip6.MustParseAddr("2001:db8::")
	addrs := make([]ip6.Addr, 3000)
	for i := range addrs {
		a := base.SetField(12, 4, uint64(rng.Intn(64)))
		if rng.Float64() < 0.5 {
			a = a.SetField(31, 1, 1)
		} else {
			a = a.SetField(16, 16, rng.Uint64())
		}
		addrs[i] = a
	}
	m, err := core.Build(addrs, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestASCIIEntropy(t *testing.T) {
	h := make([]float64, 32)
	acr := make([]float64, 32)
	for i := 16; i < 32; i++ {
		h[i] = 1
		acr[i] = 0.5
	}
	out := ASCIIEntropy(h, acr, []string{"A", "", "", "", "", "", "", "", "B"})
	if !strings.Contains(out, "#") || !strings.Contains(out, ".") {
		t.Error("plot should contain entropy and ACR marks")
	}
	if !strings.Contains(out, "legend") {
		t.Error("missing legend")
	}
	lines := strings.Split(out, "\n")
	if len(lines) < 12 {
		t.Errorf("too few lines: %d", len(lines))
	}
	// Without segments and ACR it still renders.
	out = ASCIIEntropy(h, nil, nil)
	if !strings.Contains(out, "#") {
		t.Error("entropy marks missing")
	}
	// Oversized input is clamped.
	_ = ASCIIEntropy(make([]float64, 64), nil, nil)
}

func TestASCIIBrowser(t *testing.T) {
	m := vizModel(t)
	dists, err := m.Browse(nil)
	if err != nil {
		t.Fatal(err)
	}
	out := ASCIIBrowser(dists)
	if !strings.Contains(out, "segment A") || !strings.Contains(out, "A1") {
		t.Errorf("browser output missing segment A: %s", out[:200])
	}
	if !strings.Contains(out, "%") {
		t.Error("browser output missing probabilities")
	}
}

func TestSVGEntropyPlot(t *testing.T) {
	m := vizModel(t)
	svg := SVGEntropyPlot("test & title", m.Profile.H[:], m.ACR.ACR[:], SegmentMarkers(m))
	if !strings.HasPrefix(svg, "<svg") || !strings.Contains(svg, "</svg>") {
		t.Fatal("not an SVG document")
	}
	if !strings.Contains(svg, "polyline") {
		t.Error("missing data lines")
	}
	if !strings.Contains(svg, "test &amp; title") {
		t.Error("title not escaped")
	}
	// One dashed vertical line per segment.
	if strings.Count(svg, "stroke-dasharray=\"4,3\"") != len(m.Segments) {
		t.Error("segment boundary count mismatch")
	}
	// Without ACR.
	svg = SVGEntropyPlot("no acr", m.Profile.H[:], nil, nil)
	if strings.Count(svg, "polyline") != 1 {
		t.Error("expected a single polyline without ACR")
	}
}

func TestSVGWindowedHeatmap(t *testing.T) {
	addrs := []ip6.Addr{ip6.MustParseAddr("2001:db8::1"), ip6.MustParseAddr("2001:db8::2")}
	w := entropy.NewWindowed(addrs)
	svg := SVGWindowedHeatmap("fig5", w)
	if !strings.HasPrefix(svg, "<svg") || !strings.Contains(svg, "rect") {
		t.Error("heatmap not rendered")
	}
	// Degenerate all-zero matrix.
	_ = SVGWindowedHeatmap("zero", [][]float64{{0}})
}

func TestHeatAndProbColors(t *testing.T) {
	for _, v := range []float64{-1, 0, 0.5, 1, 2} {
		r, g, b := heatColor(v)
		if r < 0 || r > 255 || g < 0 || g > 255 || b < 0 || b > 255 {
			t.Errorf("heatColor(%v) out of range", v)
		}
		c := probColor(v)
		if !strings.HasPrefix(c, "rgb(") {
			t.Errorf("probColor(%v) = %q", v, c)
		}
	}
}

func TestDOTNetwork(t *testing.T) {
	m := vizModel(t)
	dot := DOTNetwork(m, "")
	if !strings.HasPrefix(dot, "digraph") || !strings.Contains(dot, "rankdir=LR") {
		t.Error("not a DOT digraph")
	}
	for _, sm := range m.Segments {
		if !strings.Contains(dot, "\""+sm.Seg.Label+"\"") {
			t.Errorf("missing node %s", sm.Seg.Label)
		}
	}
	deps := m.Dependencies()
	if len(deps) > 0 {
		hl := DOTNetwork(m, deps[0].Child)
		if !strings.Contains(hl, "color=red") {
			t.Error("highlighted edges should be red")
		}
		if !strings.Contains(hl, "fillcolor") {
			t.Error("highlighted node should be filled")
		}
	}
}

func TestBrowserPage(t *testing.T) {
	m := vizModel(t)
	var buf bytes.Buffer
	page := &BrowserPage{Title: "unit <test>", Model: m}
	if err := page.Render(&buf); err != nil {
		t.Fatal(err)
	}
	html := buf.String()
	if !strings.Contains(html, "<!DOCTYPE html>") || !strings.Contains(html, "Entropy/IP") {
		t.Error("not an HTML page")
	}
	if !strings.Contains(html, "unit &lt;test&gt;") {
		t.Error("title not escaped")
	}
	if !strings.Contains(html, "Conditional probability browser") {
		t.Error("missing browser table")
	}
	// Conditioned page mentions the evidence.
	var seg string
	var code string
	for _, sm := range m.Segments {
		if sm.Arity() > 1 {
			seg, code = sm.Seg.Label, sm.Values[0].Code
			break
		}
	}
	if seg != "" {
		buf.Reset()
		page = &BrowserPage{Title: "cond", Model: m, Evidence: core.Evidence{seg: code}}
		if err := page.Render(&buf); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(buf.String(), "Conditioned on") {
			t.Error("conditioned page should mention the evidence")
		}
	}
	// Invalid evidence propagates an error.
	page = &BrowserPage{Title: "bad", Model: m, Evidence: core.Evidence{"ZZ": "Z1"}}
	if err := page.Render(&buf); err == nil {
		t.Error("expected error for invalid evidence")
	}
}
