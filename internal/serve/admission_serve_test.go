package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"entropyip/internal/admission"
)

// doAs issues a request with an explicit X-Tenant header, the multi-
// tenant counterpart of the do helper.
func doAs(t *testing.T, s *Server, tenant, method, path string, body interface{}) *httptest.ResponseRecorder {
	t.Helper()
	var rd *bytes.Buffer
	if body != nil {
		rd = &bytes.Buffer{}
		if err := json.NewEncoder(rd).Encode(body); err != nil {
			t.Fatal(err)
		}
	} else {
		rd = bytes.NewBuffer(nil)
	}
	req := httptest.NewRequest(method, path, rd)
	if tenant != "" {
		req.Header.Set("X-Tenant", tenant)
	}
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	return w
}

// frozenClock is an admission clock that never advances, so token
// buckets do not refill during a test and the derived bursts are exact.
func frozenClock() time.Time { return time.Unix(1_700_000_000, 0) }

// decodeShed asserts a response is the 429 envelope with the
// rate_limited code and a positive integer Retry-After header, returning
// that header's value in seconds.
func decodeShed(t *testing.T, w *httptest.ResponseRecorder) int {
	t.Helper()
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429; body: %s", w.Code, w.Body.String())
	}
	var env errorResponse
	if err := json.NewDecoder(w.Body).Decode(&env); err != nil {
		t.Fatalf("decoding shed envelope: %v", err)
	}
	if env.Error.Code != CodeRateLimited {
		t.Fatalf("error code = %q, want %q", env.Error.Code, CodeRateLimited)
	}
	ra := w.Header().Get("Retry-After")
	secs, err := strconv.Atoi(ra)
	if err != nil || secs < 1 {
		t.Fatalf("Retry-After = %q, want integer seconds >= 1", ra)
	}
	return secs
}

// TestAdmissionRateGateSheds429: once a tenant's request bucket is dry,
// further requests get the full shed contract — 429, rate_limited code,
// Retry-After — while a different tenant is untouched.
func TestAdmissionRateGateSheds429(t *testing.T) {
	s, reg := newTestServer(t, Options{Admission: admission.Config{
		RequestRate: 1.5, // burst of 3
		Now:         frozenClock,
	}})
	if _, err := reg.Put("web", testModel(t, 1)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if w := doAs(t, s, "greedy", "GET", "/v1/models", nil); w.Code != http.StatusOK {
			t.Fatalf("request %d within burst = %d: %s", i, w.Code, w.Body.String())
		}
	}
	decodeShed(t, doAs(t, s, "greedy", "GET", "/v1/models", nil))
	// Tenant isolation at the rate gate: a different tenant still admits.
	if w := doAs(t, s, "polite", "GET", "/v1/models", nil); w.Code != http.StatusOK {
		t.Fatalf("polite tenant shed alongside greedy: %d", w.Code)
	}
}

// TestAdmissionTenantFallsBackToRemoteIP: without an X-Tenant header the
// remote IP is the tenant key, so header-less clients still get rate
// limited — and an invalid header value falls back rather than minting a
// fresh bucket per junk value.
func TestAdmissionTenantFallsBackToRemoteIP(t *testing.T) {
	s, _ := newTestServer(t, Options{Admission: admission.Config{
		RequestRate: 1, // burst of 2
		Now:         frozenClock,
	}})
	// httptest.NewRequest pins RemoteAddr to 192.0.2.1:1234, so these
	// header-less requests share one bucket.
	for i := 0; i < 2; i++ {
		if w := do(t, s, "GET", "/v1/models", nil); w.Code != http.StatusOK {
			t.Fatalf("request %d = %d", i, w.Code)
		}
	}
	decodeShed(t, do(t, s, "GET", "/v1/models", nil))
	// An invalid tenant header (too long) must not bypass the IP bucket.
	decodeShed(t, doAs(t, s, strings.Repeat("x", 65), "GET", "/v1/models", nil))
}

// TestAdmissionGenBudgetSheds: the generation budget prices a request by
// its candidate count, not its request count — one huge generate puts
// the tenant in debt and the next is shed at the budget gate.
func TestAdmissionGenBudgetSheds(t *testing.T) {
	s, reg := newTestServer(t, Options{Admission: admission.Config{
		GenBudget: 500, // burst of 500
		Now:       frozenClock,
	}})
	if _, err := reg.Put("web", testModel(t, 1)); err != nil {
		t.Fatal(err)
	}
	// The budget lends: a request admits while the tenant is not in debt
	// and is charged in full, so one 800-candidate generate against a 500
	// burst admits and leaves the bucket at -300. The next request finds
	// the tenant in debt and sheds.
	if w := doAs(t, s, "heavy", "POST", "/v1/models/web/generate", GenerateRequest{Count: 800, Seed: seedPtr(1)}); w.Code != http.StatusOK {
		t.Fatalf("first generate = %d: %s", w.Code, w.Body.String())
	}
	secs := decodeShed(t, doAs(t, s, "heavy", "POST", "/v1/models/web/generate", GenerateRequest{Count: 10, Seed: seedPtr(2)}))
	if secs < 1 {
		t.Fatalf("budget shed Retry-After = %d", secs)
	}
	// Another tenant's budget is separate.
	if w := doAs(t, s, "light", "POST", "/v1/models/web/generate", GenerateRequest{Count: 100, Seed: seedPtr(3)}); w.Code != http.StatusOK {
		t.Fatalf("light tenant shed on heavy's debt: %d", w.Code)
	}
}

// TestAdmissionShedIsUnmetered: health, metrics, and the OpenAPI
// document stay reachable for a tenant that is fully rate limited —
// operators and load balancers must be able to observe saturation.
func TestAdmissionShedIsUnmetered(t *testing.T) {
	s, _ := newTestServer(t, Options{Admission: admission.Config{
		RequestRate: 0.001, // burst of 1, effectively no refill
	}})
	if w := doAs(t, s, "greedy", "GET", "/v1/models", nil); w.Code != http.StatusOK {
		t.Fatalf("burst request = %d", w.Code)
	}
	decodeShed(t, doAs(t, s, "greedy", "GET", "/v1/models", nil))
	for _, path := range []string{"/healthz", "/v1/healthz", "/metrics", "/v1/openapi.json"} {
		if w := doAs(t, s, "greedy", "GET", path, nil); w.Code != http.StatusOK {
			t.Errorf("%s gated for a shed tenant: %d", path, w.Code)
		}
	}
}

// TestHealthzReportsAdmission: the admission numbers /v1/healthz used
// to carry (tenant count, admitted and shed totals) are on /metrics.
func TestHealthzReportsAdmission(t *testing.T) {
	s, _ := newTestServer(t, Options{Admission: admission.Config{
		RequestRate: 0.001, // burst of 1, effectively no refill
	}})
	if w := doAs(t, s, "a", "GET", "/v1/models", nil); w.Code != http.StatusOK {
		t.Fatalf("seed request = %d", w.Code)
	}
	decodeShed(t, doAs(t, s, "a", "GET", "/v1/models", nil))
	body := scrape(t, s)
	for _, series := range []string{
		"eip_admission_tenants",
		"eip_admission_admitted_total",
		`eip_admission_shed_total{reason="rate"}`,
	} {
		if v := sample(t, body, series); v < 1 {
			t.Errorf("%s = %v, want >= 1", series, v)
		}
	}
}

// TestHealthzAdmissionDisabled: with no admission config the exposition
// carries no eip_admission_ series at all.
func TestHealthzAdmissionDisabled(t *testing.T) {
	s, _ := newTestServer(t, Options{})
	for _, line := range strings.Split(scrape(t, s), "\n") {
		if strings.Contains(line, "eip_admission_") {
			t.Errorf("admission series without admission config: %s", line)
		}
	}
}

// TestMetricsExposeAdmissionSeries: the Prometheus exposition carries
// the eip_admission_* family once admission is enabled, with the shed
// reason as a label.
func TestMetricsExposeAdmissionSeries(t *testing.T) {
	s, _ := newTestServer(t, Options{Admission: admission.Config{
		RequestRate: 0.001, // burst of 1, effectively no refill
	}})
	if w := doAs(t, s, "a", "GET", "/v1/models", nil); w.Code != http.StatusOK {
		t.Fatalf("seed request = %d", w.Code)
	}
	decodeShed(t, doAs(t, s, "a", "GET", "/v1/models", nil))
	w := do(t, s, "GET", "/metrics", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("metrics = %d", w.Code)
	}
	body := w.Body.String()
	for _, want := range []string{
		"eip_admission_admitted_total",
		`eip_admission_shed_total{reason="rate"}`,
		"eip_admission_tenants",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics exposition missing %q", want)
		}
	}
}

// TestAdmissionSlotQueueSheds: with one slot and a zero-depth queue, a
// second concurrent generate for the same tenant is shed at the
// queue_full gate instead of waiting.
func TestAdmissionSlotQueueSheds(t *testing.T) {
	s, reg := newTestServer(t, Options{Admission: admission.Config{
		TenantSlots: 1,
		QueueDepth:  0,
		MaxWait:     10 * time.Millisecond,
	}})
	if _, err := reg.Put("web", testModel(t, 1)); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()

	// Occupy the single slot with a long-running stream.
	first, err := http.Post(ts.URL+"/v1/models/web/generate", "application/json",
		strings.NewReader(`{"count": 10000000, "seed": 1}`))
	if err != nil {
		t.Fatal(err)
	}
	defer first.Body.Close()
	buf := make([]byte, 1) // read one byte so the stream is provably live
	if _, err := first.Body.Read(buf); err != nil {
		t.Fatalf("reading first stream: %v", err)
	}

	// Same-tenant second request must shed (httptest server gives both
	// requests the same remote IP, hence the same fallback tenant).
	req, err := http.NewRequest("POST", ts.URL+"/v1/models/web/generate",
		strings.NewReader(`{"count": 10, "seed": 2}`))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second concurrent generate = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("queue shed missing Retry-After")
	}
}
