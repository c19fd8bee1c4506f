package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "help")
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
	var g Gauge
	g.Inc()
	g.Inc()
	g.Dec()
	if got := g.Value(); got != 1 {
		t.Fatalf("gauge = %d, want 1", got)
	}
	g.Dec()
	g.Dec()
	if got := g.Value(); got != -1 {
		t.Fatalf("gauge = %d, want -1", got)
	}
}

// histCount returns the total number of observations in h.
func histCount(h *Histogram) uint64 {
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// TestHistogramInvariants pins the Prometheus histogram contract:
// cumulative buckets are non-decreasing, the +Inf bucket equals _count,
// and _sum matches the observations.
func TestHistogramInvariants(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h_seconds", "help", []float64{0.1, 1, 10})
	obsValues := []float64{0.05, 0.1, 0.5, 1.0, 5, 100}
	var wantSum float64
	for _, v := range obsValues {
		h.Observe(v)
		wantSum += v
	}
	if got := histCount(h); got != uint64(len(obsValues)) {
		t.Fatalf("count = %d, want %d", got, len(obsValues))
	}
	if got := h.Sum(); math.Abs(got-wantSum) > 1e-9 {
		t.Fatalf("sum = %v, want %v", got, wantSum)
	}
	// Upper bounds are inclusive: 0.1 lands in le="0.1", 1.0 in le="1".
	wantCum := []uint64{2, 4, 5, 6} // le=0.1, le=1, le=10, le=+Inf
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i].Load()
		if cum != wantCum[i] {
			t.Fatalf("cumulative bucket %d = %d, want %d", i, cum, wantCum[i])
		}
	}

	out := string(r.Render(nil))
	for _, want := range []string{
		`h_seconds_bucket{le="0.1"} 2`,
		`h_seconds_bucket{le="1"} 4`,
		`h_seconds_bucket{le="10"} 5`,
		`h_seconds_bucket{le="+Inf"} 6`,
		`h_seconds_sum 106.65`,
		`h_seconds_count 6`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("rendered output missing %q:\n%s", want, out)
		}
	}
}

func TestHistogramBadBucketsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-increasing buckets did not panic")
		}
	}()
	newHistogram([]float64{1, 1})
}

func TestRegistryMisusePanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m_total", "help")
	t.Run("type clash", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Fatal("re-registering a counter name as gauge did not panic")
			}
		}()
		r.GaugeFunc("m_total", "help", func() float64 { return 0 })
	})
	t.Run("duplicate series", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Fatal("duplicate label set did not panic")
			}
		}()
		r.Counter("m_total", "help")
	})
	t.Run("odd labels", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Fatal("odd label list did not panic")
			}
		}()
		r.Counter("n_total", "help", "key-without-value")
	})
}

// TestMetricsRace hammers one counter, one gauge and one histogram from 8
// goroutines while a scraper renders concurrently, then checks exact
// totals. Run under -race this doubles as the data-race proof for the
// lock-free hot path.
func TestMetricsRace(t *testing.T) {
	const (
		goroutines = 8
		iters      = 10_000
	)
	r := NewRegistry()
	c := r.Counter("race_total", "help")
	var g Gauge
	r.GaugeFunc("race_inflight", "help", func() float64 { return float64(g.Value()) })
	h := r.Histogram("race_seconds", "help", nil)

	stop := make(chan struct{})
	var scraper sync.WaitGroup
	scraper.Add(1)
	go func() { // concurrent scraper
		defer scraper.Done()
		buf := make([]byte, 0, 4096)
		for {
			select {
			case <-stop:
				return
			default:
				buf = r.Render(buf[:0])
			}
		}
	}()
	var workers sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		workers.Add(1)
		go func(i int) {
			defer workers.Done()
			for j := 0; j < iters; j++ {
				c.Inc()
				g.Inc()
				h.Observe(float64(i%4) * 0.01)
				g.Dec()
			}
		}(i)
	}
	workers.Wait()
	close(stop)
	scraper.Wait()

	if got := c.Value(); got != goroutines*iters {
		t.Fatalf("counter = %d, want %d", got, goroutines*iters)
	}
	if got := g.Value(); got != 0 {
		t.Fatalf("gauge = %d, want 0", got)
	}
	if got := histCount(h); got != goroutines*iters {
		t.Fatalf("histogram count = %d, want %d", got, goroutines*iters)
	}
	var wantSum float64
	for i := 0; i < goroutines; i++ {
		wantSum += float64(i%4) * 0.01 * iters
	}
	if got := h.Sum(); math.Abs(got-wantSum) > 1e-6 {
		t.Fatalf("histogram sum = %v, want %v", got, wantSum)
	}
}
