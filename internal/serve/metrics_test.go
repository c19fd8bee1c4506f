package serve

import (
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"entropyip/internal/obs"
)

// scrape issues GET /metrics and returns the exposition body.
func scrape(t *testing.T, s *Server) string {
	t.Helper()
	w := do(t, s, "GET", "/metrics", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("GET /metrics status = %d", w.Code)
	}
	if ct := w.Header().Get("Content-Type"); ct != obs.ContentType {
		t.Fatalf("Content-Type = %q, want %q", ct, obs.ContentType)
	}
	return w.Body.String()
}

// sample returns the value of one series (its name and labels exactly
// as exposed) in an exposition body, failing the test when the series
// is absent.
func sample(t *testing.T, body, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if v, ok := strings.CutPrefix(line, series+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("series %s: value %q: %v", series, v, err)
			}
			return f
		}
	}
	t.Fatalf("exposition has no series %s", series)
	return 0
}

// TestMetricsEndpoint exercises the serving plane end to end and asserts
// the exposition carries families from every instrumented subsystem:
// HTTP middleware, registry cache, ingest/drift/refresher streams, the
// training pool and the parallel scheduler.
func TestMetricsEndpoint(t *testing.T) {
	s, reg := newTestServer(t, Options{})
	if _, err := reg.Put("web", testModel(t, 1)); err != nil {
		t.Fatal(err)
	}

	// Traffic across the instrumented routes.
	w := do(t, s, "POST", "/v1/models/web/browse", BrowseRequest{})
	if w.Code != http.StatusOK {
		t.Fatalf("browse status = %d: %s", w.Code, w.Body.String())
	}
	w = do(t, s, "POST", "/v1/models/web/generate", GenerateRequest{Count: 5, Seed: seedPtr(1)})
	if w.Code != http.StatusOK {
		t.Fatalf("generate status = %d: %s", w.Code, w.Body.String())
	}
	req := httptest.NewRequest("POST", "/v1/models/web/observe",
		strings.NewReader("2001:db8::1\n2001:db8::2\nnot-an-address\n"))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("observe status = %d: %s", rec.Code, rec.Body.String())
	}
	var obsResp ObserveResponse
	decode(t, rec, &obsResp)
	if obsResp.Accepted != 2 || obsResp.Invalid != 1 {
		t.Fatalf("observe response = %+v, want 2 accepted / 1 invalid", obsResp)
	}

	body := scrape(t, s)
	for _, want := range []string{
		// HTTP middleware (per-route counters + histogram invariants).
		`eip_http_requests_total{route="POST /v1/models/{name}/browse"} 1`,
		`eip_http_requests_total{route="POST /v1/models/{name}/generate"} 1`,
		`eip_http_request_seconds_bucket{route="POST /v1/models/{name}/browse",le="+Inf"} 1`,
		`eip_http_request_seconds_count{route="POST /v1/models/{name}/browse"} 1`,
		"# TYPE eip_http_requests_total counter",
		"# TYPE eip_http_request_seconds histogram",
		"eip_http_in_flight 1", // the /metrics request itself
		"eip_http_panics_total 0",
		"eip_uptime_seconds",
		// Serving-plane business counters.
		"eip_generate_candidates_total 5",
		`eip_observe_lines_total{result="accepted"} 2`,
		`eip_observe_lines_total{result="invalid"} 1`,
		// Registry cache.
		"eip_registry_models 1",
		"eip_registry_cache_hits_total",
		"eip_registry_cache_misses_total",
		"eip_registry_coalesced_loads_total",
		// Per-model ingest/drift stream (created by the observe above).
		`eip_ingest_window{model="web"} 2`,
		`eip_ingest_observed_total{model="web"} 2`,
		`eip_drift_drifting{model="web"} 0`,
		`eip_refresh_rotations_total{model="web"} 0`,
		// Worker pools.
		"eip_training_pool_workers",
		"eip_training_pool_rejected_total 0",
		"eip_parallel_jobs_total",
		"eip_parallel_workers_running",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestMetricsTrainingStages trains through the API and checks the
// per-stage histogram saw every pipeline stage.
func TestMetricsTrainingStages(t *testing.T) {
	s, _ := newTestServer(t, Options{})
	addrs := make([]string, 0, 300)
	for _, a := range testAddrs(300, 7) {
		addrs = append(addrs, a.String())
	}
	w := do(t, s, "PUT", "/v1/models/web", PutModelRequest{Addresses: addrs})
	if w.Code != http.StatusCreated {
		t.Fatalf("train status = %d: %s", w.Code, w.Body.String())
	}
	body := scrape(t, s)
	for _, stage := range []string{"entropy", "segment", "mine", "compile", "encode", "learn"} {
		want := `eip_training_stage_seconds_count{stage="` + stage + `"} 1`
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestPanicRecovery installs a panicking route through the same
// middleware as the real ones and checks the recovery contract: a 500
// response, the panic counted, in-flight back to zero, and the server
// still answering afterwards.
func TestPanicRecovery(t *testing.T) {
	s, _ := newTestServer(t, Options{})
	s.handle("GET /boom", func(w http.ResponseWriter, r *http.Request) {
		panic("kaboom")
	})

	w := do(t, s, "GET", "/boom", nil)
	if w.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", w.Code)
	}
	var er errorResponse
	decode(t, w, &er)
	if er.Error.Message == "" || er.Error.Code != CodeInternal {
		t.Errorf("expected an internal error envelope, got %+v", er.Error)
	}

	body := scrape(t, s)
	if v := sample(t, body, "eip_http_panics_total"); v != 1 {
		t.Errorf("eip_http_panics_total = %v, want 1", v)
	}
	// The scrape itself is the one request in flight.
	if v := sample(t, body, "eip_http_in_flight"); v != 1 {
		t.Errorf("eip_http_in_flight = %v, want 1 (the scrape)", v)
	}
	reqs := sample(t, body, `eip_http_requests_total{route="GET /boom"}`)
	errs := sample(t, body, `eip_http_errors_total{route="GET /boom"}`)
	if reqs != 1 || errs != 1 {
		t.Errorf("GET /boom counters = %v requests / %v errors, want 1 / 1", reqs, errs)
	}

	// The server survives: healthz still answers.
	w = do(t, s, "GET", "/healthz", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("healthz after panic: status = %d", w.Code)
	}
}

// TestPanicAfterWriteKeepsStatus checks a panic after the handler has
// started writing does not attempt a second WriteHeader.
func TestPanicAfterWriteKeepsStatus(t *testing.T) {
	s, _ := newTestServer(t, Options{})
	s.handle("GET /halfway", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusAccepted)
		_, _ = w.Write([]byte("partial"))
		panic("late")
	})
	w := do(t, s, "GET", "/halfway", nil)
	if w.Code != http.StatusAccepted {
		t.Fatalf("status = %d, want the already-committed 202", w.Code)
	}
	if v := sample(t, scrape(t, s), "eip_http_panics_total"); v != 1 {
		t.Errorf("late panic: eip_http_panics_total = %v, want 1", v)
	}
}

// TestRequestIDHeader checks every response carries a unique request ID.
func TestRequestIDHeader(t *testing.T) {
	s, _ := newTestServer(t, Options{})
	ids := make(map[string]bool)
	for i := 0; i < 3; i++ {
		w := do(t, s, "GET", "/healthz", nil)
		id := w.Header().Get("X-Request-Id")
		if id == "" {
			t.Fatal("missing X-Request-Id header")
		}
		if ids[id] {
			t.Fatalf("duplicate request ID %q", id)
		}
		ids[id] = true
	}
}
