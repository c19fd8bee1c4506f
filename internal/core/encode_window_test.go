package core

import (
	"bytes"
	"math"
	"math/big"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"entropyip/internal/bayes"
	"entropyip/internal/ip6"
	"entropyip/internal/synth"
)

// refWindow is what the readable reference computes for a window: every
// address's categorical vector and within-density total, plus the
// per-window counts.
type refWindow struct {
	vecs       [][]int
	within     []float64
	codeCounts [][]int
	clamped    []int
}

// refEncodeWindow is the pre-compiled-encoder EncodeWindow, kept as the
// reference: EncodeWindow on the compiled encoder and the log-CPT scorer
// must produce identical counts and bit-identical per-address terms
// (drift scores and shadow evaluations cannot move).
func refEncodeWindow(m *Model, addrs []ip6.Addr) *refWindow {
	w := &refWindow{
		codeCounts: make([][]int, len(m.Segments)),
		clamped:    make([]int, len(m.Segments)),
	}
	for i, sm := range m.Segments {
		w.codeCounts[i] = make([]int, sm.Arity())
	}
	for _, a := range addrs {
		vec := make([]int, len(m.Segments))
		within := 0.0
		for i, sm := range m.Segments {
			value := sm.Seg.Value(a)
			idx, ok := sm.Encode(value)
			if ok {
				within -= math.Log(float64(sm.Values[idx].Width()))
			} else {
				w.clamped[i]++
				within += outOfSupportLogProb(sm.Seg.Width)
				if idx, ok = sm.EncodeNearest(value); !ok {
					idx = 0
				}
			}
			vec[i] = idx
			w.codeCounts[i][idx]++
		}
		w.vecs = append(w.vecs, vec)
		w.within = append(w.within, within)
	}
	return w
}

// refFixedSum is the window summation rule written with math/big: each
// address's total rounded to 2^-32 nats, the integers summed exactly and
// the sum read back in nats.
func refFixedSum(totals []float64) float64 {
	sum := new(big.Int)
	for _, x := range totals {
		sum.Add(sum, big.NewInt(int64(math.Round(x*0x1p32))))
	}
	f, _ := new(big.Float).SetInt(sum).Float64()
	return f * 0x1p-32
}

// mapLogLikelihood is the map-based Bayesian-network log-likelihood loop
// bayes.Scorer replaced, kept as its oracle: per row, every node's
// probability looked up through a parent-value map and CPT.RowIndex,
// floored at 1e-300 and logged, summed in row then node order.
func mapLogLikelihood(n *bayes.Network, data [][]int) float64 {
	ll := 0.0
	assignment := make(map[int]int, len(n.Vars))
	for _, row := range data {
		for i, v := range row {
			assignment[i] = v
		}
		for i := range n.Vars {
			pv := make([]int, len(n.Parents[i]))
			for k, p := range n.Parents[i] {
				pv[k] = assignment[p]
			}
			cpt := n.CPTs[i]
			p := cpt.Rows[cpt.RowIndex(pv)][row[i]]
			if p <= 0 {
				p = 1e-300
			}
			ll += math.Log(p)
		}
	}
	return ll
}

// windowCase trains a 1000-address model on one synthetic dataset and
// returns it with a window: held-out addresses of the same dataset or of
// another one, plus random addresses, so both the covered and the
// clamped paths execute.
func windowCase(t testing.TB, train, window string) (*Model, []ip6.Addr) {
	t.Helper()
	addrs, err := synth.Generate(train, 3000, 1)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Build(addrs[:1000], Options{})
	if err != nil {
		t.Fatal(err)
	}
	w := append([]ip6.Addr{}, addrs[1000:]...)
	if window != train {
		if w, err = synth.Generate(window, 2000, 2); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 500; i++ {
		var a ip6.Addr
		rng.Read(a[:])
		w = append(w, a)
	}
	return m, w
}

func TestEncodeWindowMatchesReference(t *testing.T) {
	for _, tc := range []struct{ train, window string }{
		{"S1", "S1"}, {"S5", "S5"}, {"S5", "C1"},
	} {
		m, window := windowCase(t, tc.train, tc.window)
		name := tc.train + "/" + tc.window

		got := m.EncodeWindow(window)
		want := refEncodeWindow(m, window)

		// The per-address codes the window was scored on: the compiled
		// encoder against the reference scan.
		c := m.Encoder().Compiled()
		vec := make([]int, len(m.Segments))
		for ai, a := range window {
			c.EncodeInto(vec, a)
			for k := range vec {
				if vec[k] != want.vecs[ai][k] {
					t.Fatalf("%s: EncodeInto(%v)[%d] = %d, reference %d", name, a, k, vec[k], want.vecs[ai][k])
				}
			}
		}
		for i := range want.codeCounts {
			if got.Clamped[i] != want.clamped[i] {
				t.Fatalf("%s: Clamped[%d] = %d, reference %d", name, i, got.Clamped[i], want.clamped[i])
			}
			for k := range want.codeCounts[i] {
				if got.CodeCounts[i][k] != want.codeCounts[i][k] {
					t.Fatalf("%s: CodeCounts[%d][%d] = %d, reference %d", name, i, k, got.CodeCounts[i][k], want.codeCounts[i][k])
				}
			}
		}
		// Bit-identical, not approximately equal: every address's terms
		// accumulate in the same order, and the rounded totals sum
		// exactly.
		within := refFixedSum(want.within)
		if got.WithinLogDensity != within {
			t.Fatalf("%s: WithinLogDensity = %v, reference %v", name, got.WithinLogDensity, within)
		}
		bnTotals := make([]float64, len(want.vecs))
		for i, vec := range want.vecs {
			bnTotals[i] = mapLogLikelihood(m.Net, [][]int{vec})
		}
		bn := refFixedSum(bnTotals)
		if got.BNLogLikelihood != bn {
			t.Fatalf("%s: BNLogLikelihood = %v, map-based reference %v", name, got.BNLogLikelihood, bn)
		}
		if ref := bn + within; got.LogLikelihood() != ref {
			t.Fatalf("%s: LogLikelihood = %v, reference %v", name, got.LogLikelihood(), ref)
		}
	}
}

// TestEncodeWindowAllocsIndependentOfLength pins that EncodeWindow
// allocates per window and per segment only: a 16k window makes exactly
// as many allocations as a 1k one.
func TestEncodeWindowAllocsIndependentOfLength(t *testing.T) {
	m, pool := windowCase(t, "S5", "C1")
	window := make([]ip6.Addr, 16_384)
	for i := range window {
		window[i] = pool[i%len(pool)]
	}
	m.EncodeWindow(window[:1]) // build the cached encoder and scorer
	small := testing.AllocsPerRun(20, func() { m.EncodeWindow(window[:1024]) })
	large := testing.AllocsPerRun(20, func() { m.EncodeWindow(window) })
	if small != large {
		t.Fatalf("EncodeWindow allocates %v times for 1k addresses and %v for 16k, want equal", small, large)
	}
}

// TestEncodeWindowConcurrentFirstUse uses a freshly loaded model from
// several goroutines at once, as concurrent requests do after a model
// loads: each scores a window, generates, fills a window state and reads
// the marginals, and each answer must equal the built model's. Run under
// -race it checks that the loaded model is finished when Load returns
// and that the one lazy part, the marginals, initializes safely.
func TestEncodeWindowConcurrentFirstUse(t *testing.T) {
	m, window := windowCase(t, "S5", "C1")
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	want := m.EncodeWindow(window)
	genOpts := GenerateOptions{Count: 2000, Seed: 4, Workers: 2}
	wantGen, err := m.Generate(genOpts)
	if err != nil {
		t.Fatal(err)
	}
	wantMarg, err := m.Marginals()
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got := fresh.EncodeWindow(window); got.LogLikelihood() != want.LogLikelihood() {
				t.Errorf("concurrent EncodeWindow LL = %v, want %v", got.LogLikelihood(), want.LogLikelihood())
			}
			if got, err := fresh.Generate(genOpts); err != nil || !reflect.DeepEqual(got, wantGen) {
				t.Errorf("concurrent Generate: %d candidates, err %v; differs from the built model's", len(got), err)
			}
			st := fresh.NewWindowState()
			for _, a := range window {
				st.Add(a)
			}
			sameEncoding(t, "concurrent window state", st.Encoding(), want)
			if got, err := fresh.Marginals(); err != nil || !reflect.DeepEqual(got, wantMarg) {
				t.Errorf("concurrent Marginals = %v, %v; want %v", got, err, wantMarg)
			}
		}()
	}
	wg.Wait()
}
