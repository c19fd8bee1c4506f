package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"entropyip/internal/core"
	"entropyip/internal/drift"
	"entropyip/internal/ingest"
	"entropyip/internal/ip6"
	"entropyip/internal/obs"
	"entropyip/internal/plan"
	"entropyip/internal/scan"
)

// refreshPlan builds an addressing variant: fixed /32, a weighted subnet
// nybble group, and a 16-bit host field — a large enough support that
// generation hit-rates are meaningful.
func refreshPlan(subnets []uint64, weights []float64) *plan.Plan {
	return &plan.Plan{Name: "variant", Fields: []plan.Field{
		{Name: "prefix", Start: 0, Width: 8, Gen: plan.Const(0x20010db8)},
		{Name: "subnet", Start: 8, Width: 4, Gen: plan.Choice(subnets, weights)},
		{Name: "host", Start: 28, Width: 4, Gen: plan.Uniform(1, 0xffff)},
	}}
}

func buildOn(t *testing.T, p *plan.Plan, n int, seed int64) *core.Model {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	m, err := core.Build(drawUnique(p, rng, n), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// hitRate probes count candidates generated by m against the universe and
// returns the scan result.
func hitRate(t *testing.T, m *core.Model, u *scan.Universe, count int) scan.Result {
	t.Helper()
	cands, err := m.Generate(core.GenerateOptions{Count: count, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	res, err := scan.Run(context.Background(), &scan.MemProber{Universe: u}, cands, scan.Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestRefreshEndToEnd is the drift acceptance test: a model trained on
// addressing variant A is served while live traffic shifts to variant B.
// Observations stream in over the HTTP /observe endpoint (NDJSON), the
// controller detects the drift, retrains on the live window, shadow-
// evaluates the candidate, and rotates — all under concurrent /generate
// load. The rotated model's generation hit-rate against a variant-B
// universe must beat the stale model's.
func TestRefreshEndToEnd(t *testing.T) {
	variantA := refreshPlan([]uint64{0x0001, 0x0002}, []float64{0.7, 0.3})
	variantB := refreshPlan([]uint64{0x00a1, 0x00a2}, []float64{0.5, 0.5})

	// The loop's events are read back from the structured log.
	var logs lockedBuffer
	s, reg := newTestServer(t, Options{
		Workers: 1,
		Refresh: RefreshOptions{
			AutoRefresh:   true,
			EvaluateEvery: 512,
			Ingest:        ingest.Config{WindowSize: 4096},
			Drift:         drift.Config{Enter: 0.15, Consecutive: 2, MinWindow: 256},
		},
		Logger: obs.NewLogger(&logs, "json", slog.LevelInfo),
	})

	stale := buildOn(t, variantA, 3000, 1)
	if _, err := reg.Put("live", stale); err != nil {
		t.Fatal(err)
	}

	// Ground truth: the operator's network now runs variant B.
	rng := rand.New(rand.NewSource(2))
	universe := scan.NewUniverse(drawUnique(variantB, rng, 12000), scan.UniverseConfig{Seed: 3})
	staleRes := hitRate(t, stale, universe, 2000)

	// Concurrent /generate load across the rotation: every response must
	// be a complete, well-formed stream from a consistent model version.
	stop := make(chan struct{})
	var load sync.WaitGroup
	for w := 0; w < 4; w++ {
		load.Add(1)
		go func(w int) {
			defer load.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				rec := do(t, s, http.MethodPost, "/v1/models/live/generate",
					GenerateRequest{Count: 100, Seed: seedPtr(int64(w*1000 + i))})
				if rec.Code != http.StatusOK {
					t.Errorf("generate during rotation: status %d: %s", rec.Code, rec.Body.String())
					return
				}
				for _, line := range strings.Split(strings.TrimSpace(rec.Body.String()), "\n") {
					var item GenerateItem
					if err := json.Unmarshal([]byte(line), &item); err != nil {
						t.Errorf("generate stream line %q: %v", line, err)
						return
					}
					if item.Error != "" {
						t.Errorf("generate stream error: %s", item.Error)
						return
					}
				}
			}
		}(w)
	}

	// Live traffic from variant B, streamed as NDJSON in batches. Mix the
	// accepted line styles: JSON objects, JSON strings, and bare text.
	traffic := rand.New(rand.NewSource(4))
	observed := 0
	for batch := 0; batch < 8 && !rotated(s, "live"); batch++ {
		var b strings.Builder
		for i := 0; i < 512; i++ {
			a := variantB.One(traffic)
			switch i % 3 {
			case 0:
				fmt.Fprintf(&b, "{\"addr\":%q}\n", a.String())
			case 1:
				fmt.Fprintf(&b, "%q\n", a.String())
			default:
				fmt.Fprintf(&b, "%s\n", a.String())
			}
			observed++
		}
		req := httptest.NewRequest(http.MethodPost, "/v1/models/live/observe", strings.NewReader(b.String()))
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("observe: status %d: %s", rec.Code, rec.Body.String())
		}
		var or ObserveResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &or); err != nil {
			t.Fatal(err)
		}
		if or.Invalid != 0 {
			t.Fatalf("observe reported %d invalid lines", or.Invalid)
		}
		// The background retrain needs a moment once drift has entered.
		if or.Drift.Drifting || or.Drift.Retraining {
			waitRotation(t, s, "live", 30*time.Second)
		}
	}
	close(stop)
	load.Wait()

	if !rotated(s, "live") {
		st, _ := s.Refresher().Status("live")
		t.Fatalf("no rotation after %d observations; status %+v", observed, st)
	}

	// The published version is the latest in the registry.
	fresh, info, err := reg.Get("live")
	if err != nil {
		t.Fatal(err)
	}
	if info.Version < 2 {
		t.Fatalf("latest version = %d, want >= 2 after rotation", info.Version)
	}

	// Shadow evaluation promised a better fit; the scan hit-rate against
	// the variant-B universe must agree.
	freshRes := hitRate(t, fresh, universe, 2000)
	if freshRes.Overall <= staleRes.Overall {
		t.Errorf("rotated model hit %d of %d; stale hit %d — rotation did not help",
			freshRes.Overall, freshRes.Candidates, staleRes.Overall)
	}
	if freshRes.Overall == 0 {
		t.Error("rotated model hit nothing in the live universe")
	}

	// Status and events reflect the loop.
	st, ok := s.Refresher().Status("live")
	if !ok || st.Rotations < 1 {
		t.Errorf("status = %+v, want >= 1 rotation", st)
	}
	if st.LastRotation == nil || st.LastRotation.FreshMeanLL <= st.LastRotation.StaleMeanLL {
		t.Errorf("last rotation = %+v, want fresh LL above stale", st.LastRotation)
	}
	var events []string
	for _, line := range strings.Split(strings.TrimSpace(logs.String()), "\n") {
		var rec struct{ Msg, Model, Event string }
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("log line %q: %v", line, err)
		}
		if rec.Msg == "refresh" {
			events = append(events, rec.Model+"/"+rec.Event)
		}
	}
	joined := strings.Join(events, " ")
	if !strings.Contains(joined, "live/drift-entered") || !strings.Contains(joined, "live/rotated") {
		t.Errorf("events = %s, want drift-entered and rotated", joined)
	}

	// The refresh series carry the loop: one rotation at least, and one
	// model stream.
	body := scrape(t, s)
	if v := sample(t, body, `eip_refresh_rotations_total{model="live"}`); v < 1 {
		t.Errorf(`eip_refresh_rotations_total{model="live"} = %v, want >= 1`, v)
	}
	if n := strings.Count(body, "\neip_ingest_observed_total{"); n != 1 {
		t.Errorf("%d eip_ingest_observed_total series, want 1 (model live)", n)
	}
	if v := sample(t, body, `eip_ingest_observed_total{model="live"}`); v < 1 {
		t.Errorf(`eip_ingest_observed_total{model="live"} = %v, want >= 1`, v)
	}
}

// lockedBuffer is an io.Writer safe for the concurrent writes of a
// server's logger.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// rotated reports whether the model has rotated at least once.
func rotated(s *Server, name string) bool {
	st, ok := s.Refresher().Status(name)
	return ok && st.Rotations >= 1
}

// waitRotation polls until the refresh loop publishes a rotation or the
// in-flight retrain finishes (whichever states settle first).
func waitRotation(t *testing.T, s *Server, name string, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		st, ok := s.Refresher().Status(name)
		if ok && (st.Rotations >= 1 || (!st.Retraining && st.LastError != "")) {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestObserveUnknownModel404s(t *testing.T) {
	s, _ := newTestServer(t, Options{})
	// A typoed model name must 404 whatever the body holds — valid
	// addresses, only-invalid lines, or nothing at all.
	for _, body := range []string{"2001:db8::1\n", "not-an-address\n", ""} {
		req := httptest.NewRequest(http.MethodPost, "/v1/models/nope/observe", strings.NewReader(body))
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != http.StatusNotFound {
			t.Fatalf("body %q: status = %d, want 404", body, rec.Code)
		}
	}
}

func TestObserveCountsInvalidLines(t *testing.T) {
	s, reg := newTestServer(t, Options{})
	if _, err := reg.Put("m", testModel(t, 1)); err != nil {
		t.Fatal(err)
	}
	body := "2001:db8::1\nnot-an-address\n{\"addr\":\"2001:db8::2\"}\n{\"bogus\":1}\n# comment\n\n"
	req := httptest.NewRequest(http.MethodPost, "/v1/models/m/observe", strings.NewReader(body))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	var or ObserveResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &or); err != nil {
		t.Fatal(err)
	}
	if or.Accepted != 2 || or.Invalid != 2 {
		t.Errorf("response = %+v, want accepted=2 invalid=2", or)
	}
	if or.Drift.Ingest.Observed != 2 {
		t.Errorf("ingest stats = %+v", or.Drift.Ingest)
	}
}

func TestDriftStatusEndpoint(t *testing.T) {
	s, reg := newTestServer(t, Options{})
	if _, err := reg.Put("m", testModel(t, 1)); err != nil {
		t.Fatal(err)
	}
	// Unknown model: 404.
	if rec := do(t, s, http.MethodGet, "/v1/models/nope/drift", nil); rec.Code != http.StatusNotFound {
		t.Errorf("unknown model drift status = %d, want 404", rec.Code)
	}
	// Known model without observations: zero status, not an error.
	rec := do(t, s, http.MethodGet, "/v1/models/m/drift", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	var st DriftStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Model != "m" || st.Drifting || st.Evaluations != 0 {
		t.Errorf("zero status = %+v", st)
	}
}

// TestRefreshShadowRejection forces a retrain whose candidate cannot beat
// the active model — the live window matches the model — and checks it is
// rejected and no rotation happens.
func TestRefreshShadowRejection(t *testing.T) {
	p := refreshPlan([]uint64{0x0001, 0x0002}, []float64{0.7, 0.3})
	s, reg := newTestServer(t, Options{
		Workers: 1,
		Refresh: RefreshOptions{
			AutoRefresh:   true,
			EvaluateEvery: 256,
			Ingest:        ingest.Config{WindowSize: 2048},
			// Enter=0 would be replaced by the default; use a tiny value
			// so in-distribution noise trips the detector immediately.
			Drift: drift.Config{Enter: 1e-9, Consecutive: 1, MinWindow: 64},
			// An impossible margin: no candidate may win.
			ShadowMargin: 1e9,
		},
	})
	m := buildOn(t, p, 3000, 1)
	if _, err := reg.Put("m", m); err != nil {
		t.Fatal(err)
	}
	r := s.Refresher()
	traffic := rand.New(rand.NewSource(9))
	if _, err := r.Observe(context.Background(), "m", draw(p, traffic, 512)); err != nil {
		t.Fatal(err)
	}
	// Wait for the background retrain to be judged.
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		st, _ := r.Status("m")
		if st.ShadowRejects >= 1 {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	st, _ := r.Status("m")
	if st.ShadowRejects < 1 {
		t.Fatalf("status = %+v, want a shadow rejection", st)
	}
	if st.Rotations != 0 {
		t.Errorf("rotations = %d, want 0", st.Rotations)
	}
	if _, info, err := reg.Get("m"); err != nil || info.Version != 1 {
		t.Errorf("version = %d (%v), want 1", info.Version, err)
	}
}

// TestRefreshNoAutoRefreshOnlyReports checks the default posture: drift is
// scored and reported but nothing retrains.
func TestRefreshNoAutoRefreshOnlyReports(t *testing.T) {
	a := refreshPlan([]uint64{0x0001, 0x0002}, []float64{0.7, 0.3})
	b := refreshPlan([]uint64{0x00a1, 0x00a2}, []float64{0.5, 0.5})
	s, reg := newTestServer(t, Options{
		Refresh: RefreshOptions{
			EvaluateEvery: 256,
			Ingest:        ingest.Config{WindowSize: 2048},
			Drift:         drift.Config{Enter: 0.15, Consecutive: 1, MinWindow: 64},
		},
	})
	if _, err := reg.Put("m", buildOn(t, a, 3000, 1)); err != nil {
		t.Fatal(err)
	}
	r := s.Refresher()
	traffic := rand.New(rand.NewSource(5))
	for i := 0; i < 2; i++ {
		if _, err := r.Observe(context.Background(), "m", draw(b, traffic, 256)); err != nil {
			t.Fatal(err)
		}
	}
	st, ok := r.Status("m")
	if !ok {
		t.Fatal("no status")
	}
	if !st.Drifting {
		t.Errorf("status = %+v, want drifting", st)
	}
	if st.Retraining || st.Rotations != 0 {
		t.Errorf("auto-refresh off but loop acted: %+v", st)
	}
	if _, info, err := reg.Get("m"); err != nil || info.Version != 1 {
		t.Errorf("version = %d (%v), want 1", info.Version, err)
	}
}

// TestRefreshEvaluateEveryBatching checks evaluations happen on the
// configured observation cadence, not per request.
func TestRefreshEvaluateEveryBatching(t *testing.T) {
	p := refreshPlan([]uint64{0x0001}, []float64{1})
	s, reg := newTestServer(t, Options{
		Refresh: RefreshOptions{
			EvaluateEvery: 100,
			Ingest:        ingest.Config{WindowSize: 1024},
			Drift:         drift.Config{MinWindow: -1},
		},
	})
	if _, err := reg.Put("m", buildOn(t, p, 2000, 1)); err != nil {
		t.Fatal(err)
	}
	r := s.Refresher()
	traffic := rand.New(rand.NewSource(5))
	for i := 0; i < 9; i++ {
		res, err := r.Observe(context.Background(), "m", draw(p, traffic, 10))
		if err != nil {
			t.Fatal(err)
		}
		if res.Evaluated {
			t.Fatalf("observation %d evaluated early", i)
		}
	}
	res, err := r.Observe(context.Background(), "m", draw(p, traffic, 10))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Evaluated || res.Verdict == nil {
		t.Fatalf("100th observation did not evaluate: %+v", res)
	}
	st, _ := r.Status("m")
	if st.Evaluations != 1 {
		t.Errorf("evaluations = %d, want 1", st.Evaluations)
	}
}

// TestDeleteForgetsStream checks DELETE drops the ingest stream so a
// recreated model starts clean.
func TestDeleteForgetsStream(t *testing.T) {
	p := refreshPlan([]uint64{0x0001}, []float64{1})
	s, reg := newTestServer(t, Options{Refresh: RefreshOptions{
		Ingest: ingest.Config{WindowSize: 128},
	}})
	if _, err := reg.Put("m", buildOn(t, p, 1500, 1)); err != nil {
		t.Fatal(err)
	}
	traffic := rand.New(rand.NewSource(5))
	if _, err := s.Refresher().Observe(context.Background(), "m", draw(p, traffic, 50)); err != nil {
		t.Fatal(err)
	}
	if rec := do(t, s, http.MethodDelete, "/v1/models/m", nil); rec.Code != http.StatusNoContent {
		t.Fatalf("delete = %d", rec.Code)
	}
	if _, ok := s.Refresher().Status("m"); ok {
		t.Error("stream survived model deletion")
	}
	// Recreate: observations start from an empty window.
	if _, err := reg.Put("m", buildOn(t, p, 1500, 2)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Refresher().Observe(context.Background(), "m", draw(p, traffic, 10)); err != nil {
		t.Fatal(err)
	}
	st, _ := s.Refresher().Status("m")
	if st.Ingest.Observed != 10 {
		t.Errorf("recreated stream observed = %d, want 10", st.Ingest.Observed)
	}
}

// TestEvaluateAfterRotationMatchesScore checks the incremental evaluation
// across a rotation: the first Evaluate after a new version is published
// must report exactly what drift.Score gives for the new model on a
// snapshot of the window, and so must the evaluations that follow.
func TestEvaluateAfterRotationMatchesScore(t *testing.T) {
	a := refreshPlan([]uint64{0x0001, 0x0002}, []float64{0.7, 0.3})
	b := refreshPlan([]uint64{0x00a1, 0x00a2}, []float64{0.5, 0.5})
	s, reg := newTestServer(t, Options{
		Refresh: RefreshOptions{
			EvaluateEvery: 256,
			Ingest:        ingest.Config{WindowSize: 1024},
			Drift:         drift.Config{MinWindow: -1},
		},
	})
	if _, err := reg.Put("m", buildOn(t, a, 3000, 1)); err != nil {
		t.Fatal(err)
	}
	r := s.Refresher()
	ctx := context.Background()
	traffic := rand.New(rand.NewSource(5))
	check := func(what string) {
		t.Helper()
		v, err := r.Evaluate(ctx, "m")
		if err != nil {
			t.Fatal(err)
		}
		st, err := r.stream("m")
		if err != nil {
			t.Fatal(err)
		}
		active, _, err := reg.Get("m")
		if err != nil {
			t.Fatal(err)
		}
		want, err := drift.Score(active, st.buf.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		got, _ := json.Marshal(v.Report)
		exp, _ := json.Marshal(want)
		if string(got) != string(exp) {
			t.Fatalf("%s: Evaluate report\n%s\nwant drift.Score\n%s", what, got, exp)
		}
	}
	for i := 0; i < 6; i++ {
		if _, err := r.Observe(ctx, "m", draw(b, traffic, 300)); err != nil {
			t.Fatal(err)
		}
	}
	check("before rotation")
	if _, err := reg.Put("m", buildOn(t, b, 3000, 2)); err != nil {
		t.Fatal(err)
	}
	check("first evaluation after rotation")
	if _, err := r.Observe(ctx, "m", draw(b, traffic, 300)); err != nil {
		t.Fatal(err)
	}
	check("after rotation")
}

// draw draws n addresses from p (duplicates possible, as in real traffic).
func draw(p *plan.Plan, rng *rand.Rand, n int) []ip6.Addr {
	out := make([]ip6.Addr, n)
	for i := range out {
		out[i] = p.One(rng)
	}
	return out
}

// drawUnique draws from p until n unique addresses have been produced or
// n×20 draws are spent.
func drawUnique(p *plan.Plan, rng *rand.Rand, n int) []ip6.Addr {
	seen := ip6.NewSet(n)
	out := make([]ip6.Addr, 0, n)
	for attempts := 0; len(out) < n && attempts < n*20; attempts++ {
		if a := p.One(rng); seen.Add(a) {
			out = append(out, a)
		}
	}
	return out
}
