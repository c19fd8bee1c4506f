package serve

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"entropyip/internal/admission"
	"entropyip/internal/core"
)

// TestSoakMultiTenantAdmission is the chaos/soak stage: several tenants
// hammer a live server — one greedy tenant saturating its generation
// budget, polite tenants issuing small generates and observes — while a
// rotator goroutine keeps replacing the model underneath them, the
// production refresh shape. The admission invariants under churn:
//
//   - every refused request is an explicit 429 with Retry-After — no
//     silent drops, no 5xx, no hung connections;
//   - polite tenants are isolated: the greedy tenant's saturation must
//     not starve them of admissions or blow up their admitted latency;
//   - nothing leaks: goroutines return to baseline and heap growth stays
//     bounded once the storm passes.
//
// CI runs this under -race (see the soak job), which is where the
// admission bookkeeping would surface data races with rotation.
func TestSoakMultiTenantAdmission(t *testing.T) {
	duration := 3 * time.Second
	if testing.Short() {
		duration = 1 * time.Second
	}

	s, reg := newTestServer(t, Options{
		Admission: admission.Config{
			RequestRate: 500,
			GenBudget:   10000,
			TenantSlots: 2,
			QueueDepth:  8,
			MaxWait:     200 * time.Millisecond,
		},
	})
	// Prebuilt variants so the rotator swaps models without paying a
	// training run per rotation.
	models := []*core.Model{testModel(t, 1), testModel(t, 2), testModel(t, 3)}
	if _, err := reg.Put("live", models[0]); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()
	client := ts.Client()

	baseline := runtime.NumGoroutine()

	var (
		wg         sync.WaitGroup
		stop       = make(chan struct{})
		rotations  atomic.Int64
		admitted   [2]atomic.Int64 // [0] greedy, [1] polite
		shed       [2]atomic.Int64
		mu         sync.Mutex
		violations []string        // non-(200|429) statuses, missing Retry-After
		politeLat  []time.Duration // latency of each admitted polite request
	)
	violation := func(format string, args ...interface{}) {
		mu.Lock()
		violations = append(violations, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	// checkResponse consumes the body and enforces the shed contract.
	checkResponse := func(who int, label string, resp *http.Response, err error) {
		if err != nil {
			violation("%s: transport error: %v", label, err)
			return
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusOK:
			admitted[who].Add(1)
		case http.StatusTooManyRequests:
			shed[who].Add(1)
			if resp.Header.Get("Retry-After") == "" {
				violation("%s: 429 without Retry-After", label)
			}
		default:
			violation("%s: status %d, want 200 or 429", label, resp.StatusCode)
		}
	}
	post := func(tenant, path, body string) (*http.Response, error) {
		req, err := http.NewRequest("POST", ts.URL+path, strings.NewReader(body))
		if err != nil {
			return nil, err
		}
		req.Header.Set("X-Tenant", tenant)
		req.Header.Set("Content-Type", "application/json")
		return client.Do(req)
	}

	// Chaos: rotate the model for the whole run, the Refresher's rotation
	// shape (registry Put swaps the current version atomically).
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 1; ; i++ {
			select {
			case <-stop:
				return
			case <-time.After(25 * time.Millisecond):
			}
			if _, err := reg.Put("live", models[i%len(models)]); err != nil {
				violation("rotation %d: %v", i, err)
				return
			}
			rotations.Add(1)
		}
	}()

	// Greedy tenant: two goroutines issuing oversized generates back to
	// back. Each one overdraws the 10k-candidate burst, so the budget
	// gate throttles this tenant almost immediately and keeps throttling
	// it as the bucket refills.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for seed := 0; ; seed++ {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := post("greedy", "/v1/models/live/generate",
					fmt.Sprintf(`{"count": 20000, "seed": %d}`, seed))
				checkResponse(0, "greedy generate", resp, err)
			}
		}()
	}

	// Polite tenants: small generates plus observe batches, with the
	// admitted-request latency recorded for the isolation bound.
	for p := 0; p < 2; p++ {
		tenant := fmt.Sprintf("polite-%d", p)
		wg.Add(1)
		go func() {
			defer wg.Done()
			observe := strings.Repeat("2001:db8:700:0:1:2:3:4\n", 64)
			for seed := 0; ; seed++ {
				select {
				case <-stop:
					return
				default:
				}
				start := time.Now()
				resp, err := post(tenant, "/v1/models/live/generate",
					fmt.Sprintf(`{"count": 50, "seed": %d}`, seed))
				ok := err == nil && resp.StatusCode == http.StatusOK
				checkResponse(1, tenant+" generate", resp, err)
				if ok {
					elapsed := time.Since(start)
					mu.Lock()
					politeLat = append(politeLat, elapsed)
					mu.Unlock()
				}
				resp, err = post(tenant, "/v1/models/live/observe", observe)
				checkResponse(1, tenant+" observe", resp, err)
				// Polite means paced: leave headroom between requests.
				select {
				case <-stop:
					return
				case <-time.After(10 * time.Millisecond):
				}
			}
		}()
	}

	time.Sleep(duration)
	close(stop)
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	for i, v := range violations {
		if i == 10 {
			t.Errorf("... and %d more violations", len(violations)-10)
			break
		}
		t.Error(v)
	}
	if rotations.Load() == 0 {
		t.Error("model never rotated: the chaos stage did not run")
	}
	if shed[0].Load() == 0 {
		t.Error("greedy tenant was never shed: admission did not engage")
	}
	if n := admitted[1].Load(); n < 5 {
		t.Errorf("polite tenants admitted only %d requests under greedy load: starved", n)
	}
	// Isolation bound: admitted polite requests must stay responsive even
	// while greedy saturates its budget. The bound is deliberately loose —
	// CI runs single-core under -race — but a tenant blocked behind the
	// greedy tenant's queue would overshoot it by an order of magnitude.
	var worst time.Duration
	for _, d := range politeLat {
		if d > worst {
			worst = d
		}
	}
	if worst > 10*time.Second {
		t.Errorf("worst admitted polite latency %v: greedy tenant degraded another tenant's admitted requests", worst)
	}

	// Leak checks: connections idle out, goroutines return to baseline,
	// heap settles. Poll with a deadline — conn teardown is asynchronous.
	client.CloseIdleConnections()
	deadline := time.Now().Add(20 * time.Second)
	for {
		if g := runtime.NumGoroutine(); g <= baseline+5 {
			break
		} else if time.Now().After(deadline) {
			t.Errorf("goroutines = %d after soak, baseline %d: leak", g, baseline)
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	const heapBound = 256 << 20
	if ms.HeapAlloc > heapBound {
		t.Errorf("heap alloc %d after soak exceeds %d: unbounded growth", ms.HeapAlloc, uint64(heapBound))
	}

	t.Logf("soak: rotations=%d greedy admitted=%d shed=%d polite admitted=%d shed=%d worst polite latency=%v",
		rotations.Load(), admitted[0].Load(), shed[0].Load(), admitted[1].Load(), shed[1].Load(), worst)
}

// TestSoakShedStatsConsistent cross-checks the admission controller's
// own accounting after a burst: everything the server refused is
// attributed to a shed reason, and the queue/slot gauges are back to
// zero once the burst drains.
func TestSoakShedStatsConsistent(t *testing.T) {
	s, reg := newTestServer(t, Options{Admission: admission.Config{
		RequestRate: 2.5, // burst of 5
		Now:         frozenClock,
	}})
	if _, err := reg.Put("web", testModel(t, 1)); err != nil {
		t.Fatal(err)
	}
	var got200, got429 int
	for i := 0; i < 20; i++ {
		switch w := doAs(t, s, "burst", "GET", "/v1/models", nil); w.Code {
		case http.StatusOK:
			got200++
		case http.StatusTooManyRequests:
			got429++
		default:
			t.Fatalf("request %d: status %d", i, w.Code)
		}
	}
	if got200 != 5 || got429 != 15 {
		t.Fatalf("admitted=%d shed=%d, want 5/15", got200, got429)
	}
	st := s.adm.Stats()
	if st.Admitted != 5 || st.ShedRate+st.ShedBudget+st.ShedQueueFull+st.ShedDeadline != 15 || st.ShedRate != 15 {
		t.Fatalf("controller stats %+v disagree with observed 5 admitted / 15 rate-shed", st)
	}
	if st.QueueDepth != 0 || st.SlotsInUse != 0 {
		t.Fatalf("queue/slot gauges nonzero at rest: %+v", st)
	}
}
