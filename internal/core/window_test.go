package core

import (
	"math/rand"
	"testing"

	"entropyip/internal/ip6"
)

// checkRows asserts the window state's row invariants: every row in use
// is reachable from its home slot of the index, no two rows in use hold
// the same vector, the index holds exactly the rows in use, and their
// counts add up to the filled slots.
func checkRows(t *testing.T, s *WindowState) {
	t.Helper()
	mask := len(s.index) - 1
	inUse, refs := 0, 0
	seen := map[string]bool{}
	for r := uint32(0); int(r) < s.rows; r++ {
		pg, j := s.row(r)
		if pg.refs[j] == 0 {
			continue
		}
		inUse++
		refs += int(pg.refs[j])
		var b []byte
		for _, c := range pg.codes[j*s.k : (j+1)*s.k] {
			b = append(b, byte(c), byte(c>>8), byte(c>>16), byte(c>>24))
		}
		if seen[string(b)] {
			t.Fatalf("row %d duplicates another row's vector", r)
		}
		seen[string(b)] = true
		i := s.home(r)
		for s.index[i] != r+1 {
			if s.index[i] == 0 {
				t.Fatalf("row %d is not reachable from its home slot", r)
			}
			i = (i + 1) & mask
		}
	}
	indexed := 0
	for _, e := range s.index {
		if e != 0 {
			indexed++
		}
	}
	if inUse != indexed {
		t.Fatalf("%d rows in use, index holds %d", inUse, indexed)
	}
	if refs != s.Len() {
		t.Fatalf("row counts add up to %d, %d slots filled", refs, s.Len())
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
