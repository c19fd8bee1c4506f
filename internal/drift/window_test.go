package drift

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"entropyip/internal/core"
	"entropyip/internal/ingest"
	"entropyip/internal/ip6"
	"entropyip/internal/synth"
)

// reportJSON marshals a report; equal JSON is the bit-for-bit contract.
func reportJSON(t testing.TB, rep Report) []byte {
	t.Helper()
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// checkWindow asserts that the Window's report on buf equals Score on a
// snapshot of buf, byte for byte.
func checkWindow(t *testing.T, w *Window, m *core.Model, buf *ingest.Buffer, what string) {
	t.Helper()
	want, err := Score(m, buf.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	got, err := w.Score(m, buf)
	if err != nil {
		t.Fatal(err)
	}
	if g, w := reportJSON(t, got), reportJSON(t, want); !bytes.Equal(g, w) {
		t.Fatalf("%s: Window report differs from Score(Snapshot()):\n got %s\nwant %s", what, g, w)
	}
}

// driftTraffic returns S5, C1 and S1 traffic, n addresses of each.
func driftTraffic(t *testing.T, n int) (s5, c1, s1 []ip6.Addr) {
	t.Helper()
	var pools [3][]ip6.Addr
	for i, ds := range []string{"S5", "C1", "S1"} {
		addrs, err := synth.Generate(ds, n, int64(10+i))
		if err != nil {
			t.Fatal(err)
		}
		pools[i] = addrs
	}
	return pools[0], pools[1], pools[2]
}

// TestWindowMatchesScore is the equality contract of incremental drift
// scoring: S5 → C1 → S1 traffic flows through an ingest buffer in
// 1,000-address batches, with and without the per-/64 cap, and after every
// batch the Window's report must equal Score(m, Snapshot()) byte for byte.
// The traffic fills the window, replaces it twice and leaves it mixed, so
// slots are filled, evicted, capped in place and revisited by vectors the
// window has held before.
func TestWindowMatchesScore(t *testing.T) {
	m, _, _ := goldenDriftModel(t)
	s5, c1, s1 := driftTraffic(t, 20_000)
	traffic := append(append(append([]ip6.Addr{}, s5...), c1...), s1...)
	for _, maxPer64 := range []int{0, 3} {
		buf := ingest.New(ingest.Config{MaxPer64: maxPer64})
		var w Window
		for i := 0; i < len(traffic); i += 1000 {
			buf.AddBatch(traffic[i:min(i+1000, len(traffic))])
			checkWindow(t, &w, m, buf, "batch")
		}
	}
}

// TestWindowRebuildsOnModelSwap swaps the scoring model mid-stream and
// back: each swap rebuilds the state from the whole window, and the
// reports after it must still match Score under the new model.
func TestWindowRebuildsOnModelSwap(t *testing.T) {
	s5Model, _, _ := goldenDriftModel(t)
	s5, c1, _ := driftTraffic(t, 12_000)
	c1Model, err := core.Build(c1[:1000], core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	buf := ingest.New(ingest.Config{WindowSize: 4096})
	var w Window
	models := []*core.Model{s5Model, c1Model, s5Model}
	traffic := append(append([]ip6.Addr{}, s5...), c1[1000:]...)
	for i := 0; i < len(traffic); i += 1000 {
		buf.AddBatch(traffic[i:min(i+1000, len(traffic))])
		m := models[(i/1000)/3%len(models)]
		checkWindow(t, &w, m, buf, "swap")
	}
}

// TestWindowIntervalLongerThanWindow evaluates only after more addresses
// than the window holds, so every slot changed since the last drain.
func TestWindowIntervalLongerThanWindow(t *testing.T) {
	m, _, _ := goldenDriftModel(t)
	s5, c1, s1 := driftTraffic(t, 6000)
	buf := ingest.New(ingest.Config{WindowSize: 2048})
	var w Window
	for _, batch := range [][]ip6.Addr{s5, c1, s1} {
		buf.AddBatch(batch)
		checkWindow(t, &w, m, buf, "long interval")
	}
}

// TestWindowPrefix64Only checks the per-/64 reference count Prefix64Only
// models take: their window is masked to /64s and deduplicated, and the
// Window's report must still equal Score on a snapshot.
func TestWindowPrefix64Only(t *testing.T) {
	p := testPlan([]uint64{0x0001, 0x0002, 0x0003}, []float64{0.5, 0.3, 0.2})
	rng := rand.New(rand.NewSource(7))
	m, err := core.Build(drawUnique(p, rng, 3000), core.Options{Prefix64Only: true})
	if err != nil {
		t.Fatal(err)
	}
	buf := ingest.New(ingest.Config{WindowSize: 1024})
	var w Window
	for i := 0; i < 6; i++ {
		buf.AddBatch(draw(p, rng, 500))
		checkWindow(t, &w, m, buf, "prefix64")
	}
}

// TestWindowPrefix64OnlyChurn runs S5 → C1 → S1 traffic, which spans
// thousands of /64s, through a 2,048-address window with the per-/64 cap
// at 3, so slots are evicted and capped in place and a /64 enters and
// leaves the window many times. The scoring model swaps between
// Prefix64Only models of S5 and C1 and a full S5 model; after every batch
// the Window's report must equal Score(m, Snapshot()) byte for byte.
func TestWindowPrefix64OnlyChurn(t *testing.T) {
	s5, c1, s1 := driftTraffic(t, 6000)
	var models []*core.Model
	for _, tc := range []struct {
		train []ip6.Addr
		opts  core.Options
	}{{s5, core.Options{Prefix64Only: true}}, {c1, core.Options{Prefix64Only: true}}, {s5, core.Options{}}} {
		m, err := core.Build(tc.train[:1000], tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		models = append(models, m)
	}
	buf := ingest.New(ingest.Config{WindowSize: 2048, MaxPer64: 3})
	var w Window
	traffic := append(append(append([]ip6.Addr{}, s5[1000:]...), c1[1000:]...), s1...)
	for i := 0; i < len(traffic); i += 500 {
		buf.AddBatch(traffic[i:min(i+500, len(traffic))])
		m := models[0]
		if b := i / 500; b%8 >= 5 {
			m = models[1+b/8%2]
		}
		checkWindow(t, &w, m, buf, fmt.Sprintf("prefix64 churn, batch %d", i/500))
	}
}

// TestWindowConcurrentScoreAndAdd scores one buffer from several
// goroutines while others add to it; once the writers are done, a final
// report must still equal Score on a snapshot.
func TestWindowConcurrentScoreAndAdd(t *testing.T) {
	m, _, _ := goldenDriftModel(t)
	s5, c1, _ := driftTraffic(t, 4000)
	buf := ingest.New(ingest.Config{WindowSize: 2048, MaxPer64: 3})
	var w Window
	var writers, scorers sync.WaitGroup
	stop := make(chan struct{})
	for _, pool := range [][]ip6.Addr{s5, c1} {
		writers.Add(1)
		go func(pool []ip6.Addr) {
			defer writers.Done()
			for i := 0; i < len(pool); i += 250 {
				buf.AddBatch(pool[i:min(i+250, len(pool))])
			}
		}(pool)
	}
	for i := 0; i < 2; i++ {
		scorers.Add(1)
		go func() {
			defer scorers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := w.Score(m, buf); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	writers.Wait()
	close(stop)
	scorers.Wait()
	checkWindow(t, &w, m, buf, "after concurrent use")
}

// TestWindowEmpty scores an empty buffer as Score scores an empty window.
func TestWindowEmpty(t *testing.T) {
	m, _, _ := goldenDriftModel(t)
	var w Window
	checkWindow(t, &w, m, ingest.New(ingest.Config{}), "empty")
}

// TestWindowStateAllocsGoldenC1 fills a window state with the golden C1
// window (16,384 C1 addresses against the S5 model) and pins that moving
// it by one address, one Remove and one Add, allocates nothing.
func TestWindowStateAllocsGoldenC1(t *testing.T) {
	m, s5, c1 := goldenDriftModel(t)
	st := m.NewWindowState()
	for _, a := range c1 {
		st.Add(a)
	}
	i := 0
	if n := testing.AllocsPerRun(1000, func() {
		st.Remove(c1[i])
		st.Add(s5[i])
		i++
	}); n != 0 {
		t.Fatalf("Remove plus Add allocates %v times, want 0", n)
	}
}

// BenchmarkDriftWindow16k is one incremental evaluation on the serving
// window: 1,024 of 16,384 slots hold new held-out S5 addresses per op, and
// the Window scores the buffer against a 1K-trained S5 model. The held-out
// S5 window these batches come from holds 12,550 addresses, not 16,384
// (see goldenDriftModel).
func BenchmarkDriftWindow16k(b *testing.B) {
	m, s5, _ := goldenDriftModel(b)
	buf := ingest.New(ingest.Config{WindowSize: goldenWindowSize})
	buf.AddBatch(s5)
	var w Window
	if _, err := w.Score(m, buf); err != nil { // build the state
		b.Fatal(err)
	}
	// The window is s5 in slot order; each batch shifts the next 1,024
	// slots' addresses by half a batch, so every op writes addresses the
	// slots did not hold.
	const batch = 1024
	shifted := append(append([]ip6.Addr{}, s5[batch/2:]...), s5[:batch/2]...)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := i * batch % len(shifted)
		buf.AddBatch(shifted[off : off+batch])
		if _, err := w.Score(m, buf); err != nil {
			b.Fatal(err)
		}
	}
}
