package core

import (
	"fmt"
	"math/rand"
	"testing"

	"entropyip/internal/ip6"
)

// checkRows asserts the window state's row invariants: each row's count
// is the number of filled slots referring to it, live counts the rows in
// use, no two rows hold the same vector, and dead rows never outnumber
// both the live ones and the rebuild floor.
func checkRows(t *testing.T, s *WindowState) {
	t.Helper()
	refs := make([]int, s.rows.Len())
	filled := 0
	for _, r := range s.slots {
		if r != noRow {
			refs[r]++
			filled++
		}
	}
	if filled != s.Len() {
		t.Fatalf("%d slots filled, Len = %d", filled, s.Len())
	}
	live := 0
	seen := map[string]bool{}
	for r, n := range refs {
		if c := s.rows.Count(r); c != n {
			t.Fatalf("row %d counted %d times, %d slots refer to it", r, c, n)
		}
		if n > 0 {
			live++
		}
		key := fmt.Sprint(s.rows.Row(r))
		if seen[key] {
			t.Fatalf("row %d duplicates another row's vector", r)
		}
		seen[key] = true
	}
	if live != s.live {
		t.Fatalf("%d rows in use, live = %d", live, s.live)
	}
	if dead := s.rows.Len() - live; dead > live && dead > rebuildFloor {
		t.Fatalf("%d dead rows beside %d live ones", dead, live)
	}
}

// TestWindowStateMatchesEncodeWindow churns random slots of a window state
// with held-out, foreign and random addresses. At checkpoints the state's
// encoding must equal EncodeWindow over the filled slots in slot order,
// bit for bit, and its rows must stay consistent.
func TestWindowStateMatchesEncodeWindow(t *testing.T) {
	for _, tc := range []struct{ train, window string }{
		{"S1", "S1"}, {"S1", "C1"}, {"C1", "R1"},
	} {
		m, pool := windowCase(t, tc.train, tc.window)
		const slots = 512
		rng := rand.New(rand.NewSource(4))
		st := m.NewWindowState(slots / 2) // grows past its size hint
		mirror := make([]ip6.Addr, slots)
		filled := make([]bool, slots)
		for step := 1; step <= 6000; step++ {
			slot := rng.Intn(slots)
			mirror[slot], filled[slot] = pool[rng.Intn(len(pool))], true
			st.Set(slot, mirror[slot])
			if step%500 != 0 {
				continue
			}
			var window []ip6.Addr
			for i, a := range mirror {
				if filled[i] {
					window = append(window, a)
				}
			}
			if st.Len() != len(window) {
				t.Fatalf("%s/%s: Len = %d, want %d", tc.train, tc.window, st.Len(), len(window))
			}
			sameEncoding(t, tc.train+"/"+tc.window, st.Encoding(), m.EncodeWindow(window))
			checkRows(t, st)
		}
	}
}

// TestWindowStateRebuild cycles a small window through random addresses,
// whose vectors rarely repeat, so rows die faster than they come back and
// the state must rebuild its rows again and again. The tally never holds
// more than twice the live rows plus the floor, and the encoding equals
// EncodeWindow bit for bit after every Set, just before and just after
// each rebuild included.
func TestWindowStateRebuild(t *testing.T) {
	m, _ := windowCase(t, "S1", "S1")
	const slots = 32
	st := m.NewWindowState(slots)
	window := make([]ip6.Addr, slots)
	rng := rand.New(rand.NewSource(11))
	rebuilds := 0
	for step := 0; step < 3000; step++ {
		slot := step % slots
		rng.Read(window[slot][:])
		before := st.rows.Len()
		st.Set(slot, window[slot])
		if n := st.rows.Len(); n > 2*st.live+rebuildFloor {
			t.Fatalf("step %d: %d rows for %d live ones", step, n, st.live)
		}
		if st.rows.Len() < before {
			rebuilds++
			checkRows(t, st)
		}
		if step >= slots-1 {
			sameEncoding(t, fmt.Sprintf("step %d", step), st.Encoding(), m.EncodeWindow(window))
		}
	}
	if rebuilds < 3 {
		t.Fatalf("%d rebuilds in 3000 Sets, want at least 3", rebuilds)
	}
	checkRows(t, st)
	t.Logf("%d rebuilds", rebuilds)
}
