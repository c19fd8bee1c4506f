package core

import (
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"testing"

	"entropyip/internal/ip6"
	"entropyip/internal/synth"
)

// TestWindowStateMatchesEncodeWindow churns random slots of a window with
// held-out, foreign and random addresses, the random ones mostly outside
// the mined support: a slot's new address is added, then the one it held
// is removed. After every Add and every Remove the state's encoding must
// equal EncodeWindow over the addresses it holds, bit for bit.
func TestWindowStateMatchesEncodeWindow(t *testing.T) {
	for _, tc := range []struct{ train, window string }{
		{"S1", "S1"}, {"S1", "C1"}, {"C1", "R1"},
	} {
		m, pool := windowCase(t, tc.train, tc.window)
		const slots = 64
		rng := rand.New(rand.NewSource(4))
		st := m.NewWindowState()
		var mirror []ip6.Addr
		check := func(step int, what string, extra ...ip6.Addr) {
			t.Helper()
			window := append(append([]ip6.Addr{}, mirror...), extra...)
			if st.Len() != len(window) {
				t.Fatalf("%s/%s step %d: Len = %d, want %d", tc.train, tc.window, step, st.Len(), len(window))
			}
			what = fmt.Sprintf("%s/%s step %d, after %s", tc.train, tc.window, step, what)
			sameEncoding(t, what, st.Encoding(), m.EncodeWindow(window))
		}
		for step := 0; step < 1500; step++ {
			a := pool[rng.Intn(len(pool))]
			st.Add(a)
			if len(mirror) < slots {
				mirror = append(mirror, a)
				check(step, "Add")
				continue
			}
			check(step, "Add", a)
			slot := rng.Intn(slots)
			st.Remove(mirror[slot])
			mirror[slot] = a
			check(step, "Remove")
		}
		for len(mirror) > 0 {
			st.Remove(mirror[len(mirror)-1])
			mirror = mirror[:len(mirror)-1]
		}
		check(1500, "emptying")
	}
}

// TestEncodeWindowOrderIndependent shuffles each window: the encoding
// must not move by one bit, because each address's terms are rounded
// once and summed exactly.
func TestEncodeWindowOrderIndependent(t *testing.T) {
	for _, tc := range []struct{ train, window string }{
		{"S1", "S1"}, {"S5", "C1"}, {"C1", "R1"},
	} {
		m, pool := windowCase(t, tc.train, tc.window)
		want := m.EncodeWindow(pool)
		rng := rand.New(rand.NewSource(9))
		for round := 0; round < 3; round++ {
			shuffled := append([]ip6.Addr{}, pool...)
			rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
			sameEncoding(t, fmt.Sprintf("%s/%s shuffle %d", tc.train, tc.window, round), m.EncodeWindow(shuffled), want)
		}
	}
}

// TestFixedSumWorstCase adds the largest total one address can contribute
// to a window sum, 2^20 times: past 2^16 addresses an int64 would have
// overflowed. The 128-bit sum must equal the exact product and read as
// it in nats, and removing every address must bring it back to an exact
// zero.
func TestFixedSumWorstCase(t *testing.T) {
	// A bound on either total of one address: at most 32 segments, each
	// charged the scorer's 1e-300 floor and the out-of-support floor of
	// the widest segment there can be.
	worst := 32 * (math.Log(1e-300) + outOfSupportLogProb(32))
	if worst > -1<<14 || worst < -1<<15 {
		t.Fatalf("worst-case address total %v nats, want within (-2^15, -2^14]", worst)
	}
	x := toFixed(worst)
	const n = 1 << 20
	var s fixedSum
	for i := 0; i < n; i++ {
		s.add(x)
	}
	want := new(big.Int).Mul(big.NewInt(x), big.NewInt(n))
	got := new(big.Int).Lsh(new(big.Int).SetUint64(s.hi), 64)
	got.Add(got, new(big.Int).SetUint64(s.lo))
	got.Sub(got, new(big.Int).Lsh(big.NewInt(int64(s.hi>>63)), 128)) // two's complement
	if got.Cmp(want) != 0 {
		t.Fatalf("sum of %d worst-case totals = %v units, want %v", n, got, want)
	}
	if f, w := s.nats(), float64(x)*n*fixedUnit; f != w {
		t.Fatalf("sum reads %v nats, want %v", f, w)
	}
	for i := 0; i < n; i++ {
		s.add(-x)
	}
	if s != (fixedSum{}) || s.nats() != 0 {
		t.Fatalf("after removing every address the sum is %+v (%v nats), want exact zero", s, s.nats())
	}
}

// BenchmarkWindowStateAdd is the drift window's per-address step on the
// serving window: one Remove and one Add per op on a window state filled
// with 16,384 held-out S5 addresses under a 1K-trained S5 model, each op
// swapping a window address for one of another S5 draw.
// Steady state must be 0 allocs/op (gated strictly by
// scripts/check_bench.sh).
func BenchmarkWindowStateAdd(b *testing.B) {
	const window = 16_384
	addrs, err := synth.Generate("S5", 1000+window, 1)
	if err != nil {
		b.Fatal(err)
	}
	other, err := synth.Generate("S5", window, 3)
	if err != nil {
		b.Fatal(err)
	}
	m, err := Build(addrs[:1000], Options{})
	if err != nil {
		b.Fatal(err)
	}
	// S5 has fewer distinct addresses than the window; the pools repeat.
	held, next := make([]ip6.Addr, window), make([]ip6.Addr, window)
	for i := range held {
		held[i] = addrs[1000+i%(len(addrs)-1000)]
		next[i] = other[i%len(other)]
	}
	st := m.NewWindowState()
	for _, a := range held {
		st.Add(a)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % window
		st.Remove(held[j])
		st.Add(next[j])
		held[j], next[j] = next[j], held[j]
	}
}
