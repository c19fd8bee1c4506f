package obs

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// metricType selects the TYPE line a family renders.
type metricType uint8

const (
	typeCounter metricType = iota
	typeGauge
	typeHistogram
)

func (t metricType) String() string {
	switch t {
	case typeCounter:
		return "counter"
	case typeGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// series is one (label set, value source) pair inside a family. One of
// c/h/fn is set, matching the family's type: c for a counter, fn for a
// gauge, h for a histogram.
type series struct {
	labels string // rendered inner label list: `k="v",k2="v2"`, "" if unlabeled
	c      *Counter
	h      *Histogram
	fn     func() float64
}

// family groups every series sharing a metric name, so HELP/TYPE render
// once per name as the exposition format requires.
type family struct {
	name   string
	help   string
	typ    metricType
	series []*series
}

// Registry holds registered metric families and scrape-time collectors
// and renders them all in the Prometheus text exposition format v0.0.4.
//
// Registration is for metrics whose lifetime matches the process: the
// returned Counter or Histogram (or the Gauge a GaugeFunc reads) is
// written on the hot path and read at scrape time. Dynamic series —
// anything keyed by data that appears at runtime, like per-model gauges —
// go through Collect callbacks instead, which emit fresh samples on every
// scrape and so can never leak series for models that have been deleted.
type Registry struct {
	mu         sync.Mutex
	families   map[string]*family
	collectors []CollectorFunc
}

// CollectorFunc emits dynamic samples into e at scrape time.
type CollectorFunc func(e *Expo)

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// register validates and stores one series. Misuse (type clash on a name,
// duplicate label set) is a programming error, so it panics.
func (r *Registry) register(name, help string, typ metricType, sr *series) {
	if name == "" {
		panic("obs: empty metric name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, typ: typ}
		r.families[name] = f
	}
	if f.typ != typ {
		panic(fmt.Sprintf("obs: metric %q registered as both %s and %s", name, f.typ, typ))
	}
	for _, ex := range f.series {
		if ex.labels == sr.labels {
			panic(fmt.Sprintf("obs: duplicate series %s{%s}", name, sr.labels))
		}
	}
	f.series = append(f.series, sr)
}

// Counter registers and returns a counter. labels are alternating
// key/value pairs fixed at registration time.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	c := &Counter{}
	r.register(name, help, typeCounter, &series{labels: renderLabels(labels), c: c})
	return c
}

// GaugeFunc registers a gauge whose value is read from fn at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...string) {
	r.register(name, help, typeGauge, &series{labels: renderLabels(labels), fn: fn})
}

// Histogram registers and returns a histogram over the given bucket
// upper bounds (nil selects DefBuckets). Every series of one histogram
// family should use the same buckets.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...string) *Histogram {
	h := newHistogram(buckets)
	r.register(name, help, typeHistogram, &series{labels: renderLabels(labels), h: h})
	return h
}

// Collect adds a scrape-time collector. Dynamic family names must not
// collide with registered ones; colliding samples are dropped at render.
func (r *Registry) Collect(fn CollectorFunc) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.collectors = append(r.collectors, fn)
}

// Render appends the full exposition to buf and returns the extended
// slice. Families render in lexicographic name order, so output is
// deterministic given deterministic values. Serve it with content type
// "text/plain; version=0.0.4; charset=utf-8" (the ContentType constant).
func (r *Registry) Render(buf []byte) []byte {
	return r.render(buf, false)
}

// RenderOpenMetrics appends the OpenMetrics 1.0 exposition to buf: the
// same families as Render, plus bucket exemplars recorded via
// ObserveExemplar (`# {trace_id="..."} value`) and the mandatory
// terminating `# EOF`. Counter families advertise their name without the
// `_total` suffix in HELP/TYPE as the spec requires, while samples keep
// it. Serve it with ContentTypeOpenMetrics, and only to scrapers that
// asked for it via Accept — text-format v0.0.4 parsers reject exemplar
// syntax.
func (r *Registry) RenderOpenMetrics(buf []byte) []byte {
	buf = r.render(buf, true)
	return append(buf, "# EOF\n"...)
}

func (r *Registry) render(buf []byte, om bool) []byte {
	r.mu.Lock()
	defer r.mu.Unlock()
	e := newExpo()
	for _, fn := range r.collectors {
		fn(e)
	}
	names := make([]string, 0, len(r.families)+len(e.fams))
	for n := range r.families {
		names = append(names, n)
	}
	for _, f := range e.fams {
		if _, taken := r.families[f.name]; !taken {
			names = append(names, f.name)
		}
	}
	sort.Strings(names)
	for _, n := range names {
		if f := r.families[n]; f != nil {
			buf = f.render(buf, om)
			continue
		}
		buf = e.byName[n].render(buf, om)
	}
	return buf
}

// ContentType is the Content-Type header value for Render's output.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// ContentTypeOpenMetrics is the Content-Type header value for
// RenderOpenMetrics's output.
const ContentTypeOpenMetrics = "application/openmetrics-text; version=1.0.0; charset=utf-8"

func (f *family) render(buf []byte, om bool) []byte {
	buf = appendHeader(buf, f.name, f.help, f.typ, om)
	for _, s := range f.series {
		switch f.typ {
		case typeCounter:
			buf = appendSamplePrefix(buf, f.name, "", s.labels, "")
			buf = strconv.AppendUint(buf, s.c.Value(), 10)
			buf = append(buf, '\n')
		case typeGauge:
			buf = appendSamplePrefix(buf, f.name, "", s.labels, "")
			buf = appendFloat(buf, s.fn())
			buf = append(buf, '\n')
		case typeHistogram:
			buf = s.h.renderSeries(buf, f.name, s.labels, om)
		}
	}
	return buf
}

// renderSeries emits the _bucket/_sum/_count triplet for one histogram
// series. Cumulative counts accumulate over a single pass of the bucket
// array, and _count is that same accumulated total, so the
// `+Inf bucket == count` invariant holds by construction even while
// observations land concurrently.
func (h *Histogram) renderSeries(buf []byte, name, labels string, om bool) []byte {
	var le [32]byte
	var cum uint64
	for i, bound := range h.bounds {
		cum += h.counts[i].Load()
		b := strconv.AppendFloat(le[:0], bound, 'g', -1, 64)
		buf = appendSamplePrefix(buf, name, "_bucket", labels, string(b))
		buf = strconv.AppendUint(buf, cum, 10)
		if om {
			buf = h.appendExemplar(buf, i)
		}
		buf = append(buf, '\n')
	}
	cum += h.counts[len(h.bounds)].Load()
	buf = appendSamplePrefix(buf, name, "_bucket", labels, "+Inf")
	buf = strconv.AppendUint(buf, cum, 10)
	if om {
		buf = h.appendExemplar(buf, len(h.bounds))
	}
	buf = append(buf, '\n')
	buf = appendSamplePrefix(buf, name, "_sum", labels, "")
	buf = appendFloat(buf, h.Sum())
	buf = append(buf, '\n')
	buf = appendSamplePrefix(buf, name, "_count", labels, "")
	buf = strconv.AppendUint(buf, cum, 10)
	return append(buf, '\n')
}

// Expo collects dynamic samples during one scrape. Repeated calls with
// the same name accumulate series under one family; help and type come
// from the first call.
type Expo struct {
	fams   []*expoFamily
	byName map[string]*expoFamily
}

type expoFamily struct {
	name    string
	help    string
	typ     metricType
	samples []expoSample
}

type expoSample struct {
	labels string
	value  float64
}

func newExpo() *Expo {
	return &Expo{byName: make(map[string]*expoFamily)}
}

// Counter emits one counter sample.
func (e *Expo) Counter(name, help string, v float64, labels ...string) {
	e.add(name, help, typeCounter, v, labels)
}

// Gauge emits one gauge sample.
func (e *Expo) Gauge(name, help string, v float64, labels ...string) {
	e.add(name, help, typeGauge, v, labels)
}

func (e *Expo) add(name, help string, typ metricType, v float64, labels []string) {
	f := e.byName[name]
	if f == nil {
		f = &expoFamily{name: name, help: help, typ: typ}
		e.byName[name] = f
		e.fams = append(e.fams, f)
	}
	f.samples = append(f.samples, expoSample{labels: renderLabels(labels), value: v})
}

func (f *expoFamily) render(buf []byte, om bool) []byte {
	buf = appendHeader(buf, f.name, f.help, f.typ, om)
	for _, s := range f.samples {
		buf = appendSamplePrefix(buf, f.name, "", s.labels, "")
		buf = appendFloat(buf, s.value)
		buf = append(buf, '\n')
	}
	return buf
}

// appendExemplar appends ` # {trace_id="..."} value` when bucket i's
// exemplar slot holds one (and is not being written this instant).
func (h *Histogram) appendExemplar(buf []byte, i int) []byte {
	var id [exemplarIDLen]byte
	var v float64
	if !h.exemplars[i].tryLoad(&id, &v) {
		return buf
	}
	n := 0
	for n < len(id) && id[n] != 0 {
		n++
	}
	buf = append(buf, ` # {trace_id="`...)
	buf = append(buf, id[:n]...)
	buf = append(buf, `"} `...)
	return appendFloat(buf, v)
}

// appendHeader renders the # HELP and # TYPE comment lines. In
// OpenMetrics mode a counter's MetricFamily name drops the `_total`
// suffix (samples keep it), per the OpenMetrics 1.0 spec.
func appendHeader(buf []byte, name, help string, typ metricType, om bool) []byte {
	famName := name
	if om && typ == typeCounter {
		famName = strings.TrimSuffix(name, "_total")
	}
	buf = append(buf, "# HELP "...)
	buf = append(buf, famName...)
	buf = append(buf, ' ')
	buf = appendEscapedHelp(buf, help)
	buf = append(buf, "\n# TYPE "...)
	buf = append(buf, famName...)
	buf = append(buf, ' ')
	buf = append(buf, typ.String()...)
	return append(buf, '\n')
}

// appendSamplePrefix renders `name[suffix]{labels,le="x"} ` up to and
// including the separating space. le is the pre-rendered extra `le`
// label value for histogram buckets, "" for none.
func appendSamplePrefix(buf []byte, name, suffix, labels, le string) []byte {
	buf = append(buf, name...)
	buf = append(buf, suffix...)
	if labels != "" || le != "" {
		buf = append(buf, '{')
		buf = append(buf, labels...)
		if le != "" {
			if labels != "" {
				buf = append(buf, ',')
			}
			buf = append(buf, `le="`...)
			buf = append(buf, le...)
			buf = append(buf, '"')
		}
		buf = append(buf, '}')
	}
	return append(buf, ' ')
}

// appendFloat renders a sample value. strconv's 'g' format yields
// shortest-round-trip decimals plus the NaN/+Inf/-Inf spellings the
// text format specifies.
func appendFloat(buf []byte, v float64) []byte {
	return strconv.AppendFloat(buf, v, 'g', -1, 64)
}

// renderLabels turns alternating key/value pairs into the inner label
// list `k1="v1",k2="v2"`. Values are escaped per the exposition format
// (backslash, double-quote, newline); keys are caller-controlled
// identifiers and rendered verbatim.
func renderLabels(kv []string) string {
	if len(kv) == 0 {
		return ""
	}
	if len(kv)%2 != 0 {
		panic("obs: labels must be alternating key/value pairs")
	}
	var b []byte
	for i := 0; i < len(kv); i += 2 {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, kv[i]...)
		b = append(b, '=', '"')
		b = appendEscapedLabel(b, kv[i+1])
		b = append(b, '"')
	}
	return string(b)
}

// appendEscapedLabel escapes a label value: \ → \\, " → \", newline → \n.
func appendEscapedLabel(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '\\':
			dst = append(dst, '\\', '\\')
		case '"':
			dst = append(dst, '\\', '"')
		case '\n':
			dst = append(dst, '\\', 'n')
		default:
			dst = append(dst, c)
		}
	}
	return dst
}

// appendEscapedHelp escapes a HELP text: \ → \\, newline → \n.
func appendEscapedHelp(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '\\':
			dst = append(dst, '\\', '\\')
		case '\n':
			dst = append(dst, '\\', 'n')
		default:
			dst = append(dst, c)
		}
	}
	return dst
}
