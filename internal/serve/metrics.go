package serve

import (
	"time"

	"entropyip/internal/obs"
)

// Metrics collects per-route request statistics on lock-free obs
// primitives, exported on GET /metrics through the obs.Registry the
// counters are registered in. Each route's counters are registered once,
// when the route is installed, and the handler middleware holds a direct
// pointer: the request path does no map lookup and takes no lock.
type Metrics struct {
	start    time.Time
	inFlight obs.Gauge
	panics   *obs.Counter

	o *obs.Registry
}

// routeMetrics is one route's pre-registered counter set.
type routeMetrics struct {
	requests *obs.Counter
	errors   *obs.Counter
	bytes    *obs.Counter
	latency  *obs.Histogram
}

func newMetrics(o *obs.Registry) *Metrics {
	m := &Metrics{start: time.Now(), o: o}
	o.GaugeFunc("eip_http_in_flight", "Requests currently being handled.",
		func() float64 { return float64(m.inFlight.Value()) })
	m.panics = o.Counter("eip_http_panics_total", "Handler panics recovered by the middleware.")
	o.GaugeFunc("eip_uptime_seconds", "Seconds since the server was created.",
		func() float64 { return time.Since(m.start).Seconds() })
	return m
}

// route registers one route's counter set. Called once per route at
// server construction.
func (m *Metrics) route(pattern string) *routeMetrics {
	return &routeMetrics{
		requests: m.o.Counter("eip_http_requests_total", "Completed requests by route.", "route", pattern),
		errors:   m.o.Counter("eip_http_errors_total", "Requests answered with a 4xx or 5xx status.", "route", pattern),
		bytes:    m.o.Counter("eip_http_response_bytes_total", "Response body bytes written.", "route", pattern),
		latency:  m.o.Histogram("eip_http_request_seconds", "Request handling latency.", nil, "route", pattern),
	}
}

func (m *Metrics) begin() { m.inFlight.Inc() }

func (m *Metrics) end(rm *routeMetrics, status int, dur time.Duration, bytes int64, traceID string) {
	m.inFlight.Dec()
	rm.requests.Inc()
	if status >= 400 {
		rm.errors.Inc()
	}
	// The trace ID becomes the bucket's exemplar in the OpenMetrics
	// exposition, linking a slow latency observation to its flight-recorder
	// trace; the text v0.0.4 exposition ignores it.
	rm.latency.ObserveExemplar(dur.Seconds(), traceID)
	if bytes > 0 {
		rm.bytes.Add(uint64(bytes))
	}
}

// panicked records one recovered handler panic.
func (m *Metrics) panicked() { m.panics.Inc() }
